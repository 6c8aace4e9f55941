(* Independent output checker.

   Parses ASCII AIGER itself, evaluates with its own bit-parallel evaluator
   and computes ER, NMED and MRED with its own arithmetic.  Nothing here
   calls the simulator or the error metrics of the library under test, so a
   defect there cannot hide itself from this check.

   Words carry 32 rounds each (round r lives in word r / 32, bit r mod 32),
   which makes exhaustive enumeration a matter of fixed masks.  Circuits are
   evaluated block by block, so memory stays at (variables x block) words
   whatever the number of rounds. *)

let word_bits = 32
let word_mask = 0xFFFF_FFFF
let block_words = 256
let exhaustive_limit = 22
let random_rounds = 1 lsl 20

type aig = {
  npis : int;
  npos : int;
  maxvar : int;
  inputs : int array;  (** variable of each PI *)
  outputs : int array;  (** literal of each PO *)
  order : (int * int * int) array;  (** ANDs (var, lit0, lit1) in topological order *)
}

let fail fmt = Printf.ksprintf failwith fmt

let parse text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> Array.of_list
  in
  let ints i =
    if i >= Array.length lines then fail "checker: aiger line %d missing" (i + 1);
    String.split_on_char ' ' lines.(i)
    |> List.filter (fun s -> s <> "")
    |> List.map (fun s ->
           match int_of_string_opt s with
           | Some v when v >= 0 -> v
           | _ -> fail "checker: aiger line %d: bad number %S" (i + 1) s)
  in
  let m, i, o, a =
    match String.split_on_char ' ' lines.(0) with
    | "aag" :: rest -> (
        match
          List.map int_of_string_opt (List.filter (fun s -> s <> "") rest)
        with
        | [ Some m; Some i; Some 0; Some o; Some a ] -> (m, i, o, a)
        | _ -> fail "checker: unsupported aiger header %S" lines.(0))
    | _ -> fail "checker: not an ASCII aiger file"
  in
  if m < i + a || Array.length lines < 1 + i + o + a then
    fail "checker: aiger header inconsistent with its body";
  let defined = Array.make (m + 1) `Undef in
  let var_of_lit l =
    let v = l lsr 1 in
    if v > m then fail "checker: literal %d out of range" l;
    v
  in
  let inputs =
    Array.init i (fun k ->
        match ints (1 + k) with
        | [ l ] when l land 1 = 0 && l > 0 ->
            let v = var_of_lit l in
            if defined.(v) <> `Undef then fail "checker: variable %d redefined" v;
            defined.(v) <- `Pi;
            v
        | _ -> fail "checker: bad input line %d" (2 + k))
  in
  let outputs =
    Array.init o (fun k ->
        match ints (1 + i + k) with
        | [ l ] -> ignore (var_of_lit l); l
        | _ -> fail "checker: bad output line %d" (2 + i + k))
  in
  let ands = Array.make (m + 1) (0, 0) in
  for k = 0 to a - 1 do
    match ints (1 + i + o + k) with
    | [ lhs; r0; r1 ] when lhs land 1 = 0 && lhs > 0 ->
        let v = var_of_lit lhs in
        ignore (var_of_lit r0);
        ignore (var_of_lit r1);
        if defined.(v) <> `Undef then fail "checker: variable %d redefined" v;
        defined.(v) <- `And;
        ands.(v) <- (r0, r1)
    | _ -> fail "checker: bad and line %d" (2 + i + o + k)
  done;
  (* Topological order by iterative depth-first search; a variable met again
     while still on the stack is a combinational cycle. *)
  let state = Array.make (m + 1) 0 (* 0 new, 1 open, 2 done *) in
  let order = ref [] in
  let visit root =
    let stack = ref [ root ] in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | v :: rest -> (
          match defined.(v) with
          | `Undef when v <> 0 -> fail "checker: variable %d used but undefined" v
          | `Undef | `Pi ->
              state.(v) <- 2;
              stack := rest
          | `And ->
              if state.(v) = 2 then stack := rest
              else begin
                let r0, r1 = ands.(v) in
                let pending =
                  List.filter (fun u -> state.(u) <> 2) [ r0 lsr 1; r1 lsr 1 ]
                in
                if pending = [] then begin
                  state.(v) <- 2;
                  order := (v, r0, r1) :: !order;
                  stack := rest
                end
                else begin
                  if state.(v) = 1 then fail "checker: combinational cycle at %d" v;
                  state.(v) <- 1;
                  stack := pending @ !stack
                end
              end)
    done
  in
  for v = 1 to m do
    if defined.(v) = `And then visit v
  done;
  {
    npis = i;
    npos = o;
    maxvar = m;
    inputs;
    outputs;
    order = Array.of_list (List.rev !order);
  }

(* ---------- Pattern sources ---------- *)

type source =
  | Exhaustive of int  (** all [2^npis] rounds *)
  | Random of { seed : int; rounds : int }
  | Given of { rounds : int; bit : int -> int -> bool }
      (** [bit pi round]; used to compare against other evaluators *)

let rounds_of = function
  | Exhaustive n -> 1 lsl n
  | Random { rounds; _ } | Given { rounds; _ } -> rounds

let source_for ~npis ~seed =
  if npis <= exhaustive_limit then Exhaustive npis
  else Random { seed; rounds = random_rounds }

(* A counter-based generator: word [w] of PI [pi] is a hash of
   (seed, pi, w), so the pattern set does not depend on the block size. *)
let mix x =
  let x = x lxor (x lsr 31) in
  let x = x * 0x3fb5d329728ea185 in
  let x = x lxor (x lsr 27) in
  let x = x * 0x01dadef4bc2dd44d in
  x lxor (x lsr 33)

let random_word ~seed ~pi w = (mix ((mix (seed + (pi * 0x9E3779B9))) + w) lsr 16) land word_mask

(* Exhaustive masks of the five PIs that vary inside a word. *)
let low_masks =
  Array.init 5 (fun i ->
      let m = ref 0 in
      for b = 0 to word_bits - 1 do
        if (b lsr i) land 1 = 1 then m := !m lor (1 lsl b)
      done;
      !m)

let input_word src ~pi w =
  match src with
  | Exhaustive _ ->
      if pi < 5 then low_masks.(pi)
      else if (w lsr (pi - 5)) land 1 = 1 then word_mask
      else 0
  | Random { seed; _ } -> random_word ~seed ~pi w
  | Given { rounds; bit } ->
      let v = ref 0 in
      for b = 0 to word_bits - 1 do
        let r = (w * word_bits) + b in
        if r < rounds && bit pi r then v := !v lor (1 lsl b)
      done;
      !v

let num_words src = (rounds_of src + word_bits - 1) / word_bits

let tail_mask src w =
  let rounds = rounds_of src in
  let lo = w * word_bits in
  if lo + word_bits <= rounds then word_mask else (1 lsl (rounds - lo)) - 1

(* ---------- Evaluation ---------- *)

(* PO words of [g] on words [w0, w0 + nw) of [src], written into
   [out.(po * stride + (w - base))]. *)
let eval_block g src ~vals ~w0 ~nw ~out ~stride ~base =
  let lit_word l k =
    let v = vals.((l lsr 1) * block_words + k) in
    if l land 1 = 1 then v lxor word_mask else v
  in
  for k = 0 to nw - 1 do
    vals.(k) <- 0
  done;
  Array.iteri
    (fun pi v ->
      for k = 0 to nw - 1 do
        vals.((v * block_words) + k) <- input_word src ~pi (w0 + k)
      done)
    g.inputs;
  Array.iter
    (fun (v, r0, r1) ->
      let o = v * block_words in
      for k = 0 to nw - 1 do
        vals.(o + k) <- lit_word r0 k land lit_word r1 k
      done)
    g.order;
  Array.iteri
    (fun po l ->
      for k = 0 to nw - 1 do
        out.((po * stride) + (w0 - base) + k) <-
          lit_word l k land tail_mask src (w0 + k)
      done)
    g.outputs

let iter_blocks src f =
  let nwords = num_words src in
  let w0 = ref 0 in
  while !w0 < nwords do
    let nw = min block_words (nwords - !w0) in
    f ~w0:!w0 ~nw;
    w0 := !w0 + nw
  done

type golden = { circuit : aig; src : source; words : int array (* po-major *) }

let golden g src =
  let nwords = num_words src in
  let words = Array.make (g.npos * nwords) 0 in
  let vals = Array.make ((g.maxvar + 1) * block_words) 0 in
  iter_blocks src (fun ~w0 ~nw ->
      eval_block g src ~vals ~w0 ~nw ~out:words ~stride:nwords ~base:0);
  { circuit = g; src; words }

type result = {
  rounds : int;
  differing : int;  (** rounds on which any PO differs *)
  er : float;
  nmed : float;
  mred : float;
}

let popcount x =
  let rec go x n = if x = 0 then n else go (x land (x - 1)) (n + 1) in
  go x 0

(* Output value of round bit [b] of word column [w]: PO 0 is the least
   significant bit. *)
let value ~npos get w b =
  let v = ref 0 in
  for po = npos - 1 downto 0 do
    v := (!v lsl 1) lor ((get po w lsr b) land 1)
  done;
  !v

let compare gold approx =
  let g = gold.circuit in
  if approx.npis <> g.npis || approx.npos <> g.npos then
    Error
      (Printf.sprintf "interface %d/%d PIs/POs, expected %d/%d" approx.npis
         approx.npos g.npis g.npos)
  else begin
    let src = gold.src in
    let nwords = num_words src in
    let npos = g.npos in
    let valued = npos <= 62 in
    let vals = Array.make ((approx.maxvar + 1) * block_words) 0 in
    let out = Array.make (npos * block_words) 0 in
    let differing = ref 0 and ed_sum = ref 0.0 and red_sum = ref 0.0 in
    iter_blocks src (fun ~w0 ~nw ->
        eval_block approx src ~vals ~w0 ~nw ~out ~stride:block_words ~base:w0;
        let gget po w = gold.words.((po * nwords) + w) in
        let aget po w = out.((po * block_words) + (w - w0)) in
        for w = w0 to w0 + nw - 1 do
          let diff = ref 0 in
          for po = 0 to npos - 1 do
            diff := !diff lor (gget po w lxor aget po w)
          done;
          if !diff <> 0 then begin
            differing := !differing + popcount !diff;
            if valued then
              for b = 0 to word_bits - 1 do
                if (!diff lsr b) land 1 = 1 then begin
                  let gv = value ~npos gget w b and av = value ~npos aget w b in
                  let ed = float_of_int (abs (gv - av)) in
                  ed_sum := !ed_sum +. ed;
                  red_sum := !red_sum +. (ed /. float_of_int (max gv 1))
                end
              done
          end
        done);
    let n = float_of_int (rounds_of src) in
    let maxval = if npos = 0 then 1.0 else (2.0 ** float_of_int npos) -. 1.0 in
    Ok
      {
        rounds = rounds_of src;
        differing = !differing;
        er = float_of_int !differing /. n;
        nmed = (if valued then !ed_sum /. n /. maxval else nan);
        mred = (if valued then !red_sum /. n else nan);
      }
  end
