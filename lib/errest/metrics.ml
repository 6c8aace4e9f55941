module Bitvec = Logic.Bitvec

type kind =
  | Er
  | Med
  | Nmed
  | Mred
  | Mse
  | Mhd
  | Nmhd
  | Maxed
  | Maxhd
  | Maxred

let kind_to_string = function
  | Er -> "er"
  | Med -> "med"
  | Nmed -> "nmed"
  | Mred -> "mred"
  | Mse -> "mse"
  | Mhd -> "mhd"
  | Nmhd -> "nmhd"
  | Maxed -> "maxed"
  | Maxhd -> "maxhd"
  | Maxred -> "maxred"

let kind_of_string = function
  | "er" -> Some Er
  | "med" -> Some Med
  | "nmed" -> Some Nmed
  | "mred" -> Some Mred
  | "mse" -> Some Mse
  | "mhd" -> Some Mhd
  | "nmhd" -> Some Nmhd
  | "maxed" -> Some Maxed
  | "maxhd" -> Some Maxhd
  | "maxred" -> Some Maxred
  | _ -> None

let all_kinds = [ Er; Med; Nmed; Mred; Mse; Mhd; Nmhd; Maxed; Maxhd; Maxred ]
let is_max = function Maxed | Maxhd | Maxred -> true | _ -> false
let bounded_mean = function Er | Nmed | Nmhd -> true | _ -> false

let check_shapes golden approx =
  if Array.length golden <> Array.length approx then
    invalid_arg "Metrics: PO count mismatch";
  if Array.length golden > 0 then begin
    let len = Bitvec.length golden.(0) in
    Array.iter
      (fun v -> if Bitvec.length v <> len then invalid_arg "Metrics: ragged signatures")
      (Array.append golden approx)
  end

let num_rounds golden =
  if Array.length golden = 0 then 0 else Bitvec.length golden.(0)

let er ~golden ~approx =
  check_shapes golden approx;
  let len = num_rounds golden in
  if len = 0 then 0.0
  else begin
    let diff = Bitvec.create len in
    Array.iteri
      (fun i go ->
        let x = Bitvec.logxor go approx.(i) in
        Bitvec.logor_inplace diff x)
      golden;
    float_of_int (Bitvec.popcount diff) /. float_of_int len
  end

let output_values pos =
  let npos = Array.length pos in
  if npos > 62 then invalid_arg "Metrics.output_values: more than 62 outputs";
  let len = num_rounds pos in
  let values = Array.make len 0 in
  for i = 0 to npos - 1 do
    let words = Bitvec.unsafe_words pos.(i) in
    for m = 0 to len - 1 do
      let bit = (words.(m / Bitvec.word_bits) lsr (m mod Bitvec.word_bits)) land 1 in
      values.(m) <- values.(m) lor (bit lsl i)
    done
  done;
  values

(* Word-blocked summation: fold rounds per 62-round block, then fold the
   block sums in block order.  This is THE float-summation order of every
   error-distance measurement (full and incremental alike, DESIGN.md
   section 10): a block whose rounds are untouched by a candidate
   contributes the exact same partial sum, so cached per-block partials
   compose bit-identically with recomputed ones. *)
let sum_blocked len f =
  let acc = ref 0.0 in
  let lo = ref 0 in
  while !lo < len do
    let hi = min len (!lo + Bitvec.word_bits) in
    let wacc = ref 0.0 in
    for m = !lo to hi - 1 do
      wacc := !wacc +. f m
    done;
    acc := !acc +. !wacc;
    lo := hi
  done;
  !acc

let fold_ed f ~golden ~approx =
  check_shapes golden approx;
  let len = num_rounds golden in
  if len = 0 then 0.0
  else begin
    let gv = output_values golden and av = output_values approx in
    sum_blocked len (fun m -> f gv.(m) av.(m)) /. float_of_int len
  end

let mean_ed ~golden ~approx =
  fold_ed (fun g a -> float_of_int (abs (g - a))) ~golden ~approx

let med = mean_ed

let nmed ~golden ~approx =
  let o = Array.length golden in
  let maxval = if o = 0 then 1.0 else (2.0 ** float_of_int o) -. 1.0 in
  mean_ed ~golden ~approx /. maxval

let mred ~golden ~approx =
  fold_ed
    (fun g a -> float_of_int (abs (g - a)) /. float_of_int (max g 1))
    ~golden ~approx

let worst_case_ed ~golden ~approx =
  check_shapes golden approx;
  if num_rounds golden = 0 then 0
  else begin
    let gv = output_values golden and av = output_values approx in
    let worst = ref 0 in
    Array.iteri (fun m g -> worst := max !worst (abs (g - av.(m)))) gv;
    !worst
  end

(* ---------- Per-round term families ----------

   Every value-decoded metric is [aggregate over rounds of
   term(gv, av) * weight(round)]: the aggregate is either the blocked mean
   or the maximum, the term is one of the four families below, and the
   weight bakes together the metric's own normalization and (optionally)
   the input distribution.  One shared [round_term] is evaluated by both
   the full and the incremental paths — that single code path is what makes
   them bit-identical ([Float.equal]). *)

type term_fn = Indicator | Abs_diff | Squared | Hamming

let term fn g a =
  match fn with
  | Indicator -> if g = a then 0.0 else 1.0
  | Abs_diff -> float_of_int (abs (g - a))
  | Squared ->
      let d = float_of_int (g - a) in
      d *. d
  | Hamming -> float_of_int (Bitvec.popcount_word (g lxor a))

let term_of_kind = function
  | Er -> Indicator
  | Med | Nmed | Mred | Maxed | Maxred -> Abs_diff
  | Mse -> Squared
  | Mhd | Nmhd | Maxhd -> Hamming

(* Per-round multiplier from the metric's own definition (normalization /
   relative denominator); the distribution multiplier is folded in by
   [prepare]. *)
let metric_weights kind ~npos values =
  let len = Array.length values in
  match kind with
  | Er | Med | Mse | Mhd | Maxed | Maxhd -> Array.make len 1.0
  | Nmed ->
      let maxval = if npos = 0 then 1.0 else (2.0 ** float_of_int npos) -. 1.0 in
      Array.make len (1.0 /. maxval)
  | Nmhd ->
      let o = if npos = 0 then 1.0 else float_of_int npos in
      Array.make len (1.0 /. o)
  | Mred | Maxred ->
      Array.map (fun g -> 1.0 /. float_of_int (max g 1)) values

type prepared =
  | Prep_er of Bitvec.t array
  | Prep_mean of {
      golden : Bitvec.t array;
      values : int array;
      weights : float array;  (** per-round multiplier applied to the term *)
      fn : term_fn;
    }
  | Prep_max of {
      golden : Bitvec.t array;
      values : int array;
      weights : float array;  (** metric weight, zeroed off-support rounds *)
      fn : term_fn;
    }

let check_distr_weights p ~len =
  if Array.length p <> len then
    invalid_arg "Metrics: distribution weight count mismatch";
  Array.iter
    (fun x ->
      if not (Float.is_finite x) || x < 0.0 then
        invalid_arg "Metrics: distribution weights must be finite and non-negative")
    p;
  let total = Array.fold_left ( +. ) 0.0 p in
  if total <= 0.0 then invalid_arg "Metrics: distribution weights sum to zero";
  total

let prepare ?weights kind ~golden =
  match (kind, weights) with
  | Er, None -> Prep_er golden
  | _ ->
      let len = num_rounds golden in
      let values = output_values golden in
      let npos = Array.length golden in
      let w = metric_weights kind ~npos values in
      let fn = term_of_kind kind in
      if is_max kind then begin
        (* Under a distribution the maximum ranges over the support only:
           a zero weight excludes the round, any positive weight keeps the
           metric weight untouched (worst case is not probability-scaled). *)
        (match weights with
        | None -> ()
        | Some p ->
            ignore (check_distr_weights p ~len : float);
            Array.iteri (fun m pm -> if pm <= 0.0 then w.(m) <- 0.0) p);
        Prep_max { golden; values; weights = w; fn }
      end
      else begin
        (* Weighted mean: the effective multiplier is
           [metric_w * (p_m / total) * len], so the final division by [len]
           in the blocked fold yields exactly the probability-weighted mean.
           Uniform weights over the sample give a multiplier of exactly 1.0,
           which is why ENUM-with-equal-weights is bit-identical to UNIF. *)
        (match weights with
        | None -> ()
        | Some p ->
            let total = check_distr_weights p ~len in
            let scale = float_of_int len /. total in
            Array.iteri (fun m pm -> w.(m) <- w.(m) *. (pm *. scale)) p);
        Prep_mean { golden; values; weights = w; fn }
      end

(* Per-round term of the prepared measurement; any change here must be
   mirrored in the incremental path below (bit-identity invariant). *)
let round_term fn values weights av m = term fn values.(m) av.(m) *. weights.(m)

let measure_prepared prep ~approx =
  match prep with
  | Prep_er golden -> er ~golden ~approx
  | Prep_mean { golden; values; weights; fn } ->
      check_shapes golden approx;
      let len = num_rounds golden in
      if len = 0 then 0.0
      else begin
        let av = output_values approx in
        sum_blocked len (round_term fn values weights av) /. float_of_int len
      end
  | Prep_max { golden; values; weights; fn } ->
      check_shapes golden approx;
      let len = num_rounds golden in
      if len = 0 then 0.0
      else begin
        let av = output_values approx in
        let worst = ref 0.0 in
        for m = 0 to len - 1 do
          let t = round_term fn values weights av m in
          if t > !worst then worst := t
        done;
        !worst
      end

let measure ?weights kind ~golden ~approx =
  match (weights, kind) with
  | None, Er -> er ~golden ~approx
  | None, Nmed -> nmed ~golden ~approx
  | None, Mred -> mred ~golden ~approx
  | _ -> measure_prepared (prepare ?weights kind ~golden) ~approx

let mse ~golden ~approx = measure Mse ~golden ~approx
let mhd ~golden ~approx = measure Mhd ~golden ~approx
let nmhd ~golden ~approx = measure Nmhd ~golden ~approx
let max_ed ~golden ~approx = measure Maxed ~golden ~approx
let max_hd ~golden ~approx = measure Maxhd ~golden ~approx
let max_red ~golden ~approx = measure Maxred ~golden ~approx

(* ---------- Incremental measurement ----------

   Per-word base state so a candidate pays only for the words its change
   actually reaches.  ER keeps the OR-of-differences per word (an integer,
   so the delta is exact by construction); the mean kinds keep the word's
   partial sum in the blocked order above, so substituting the recomputed
   words and re-folding all blocks reproduces the full measurement
   bit-for-bit; the max kinds keep the word's maximum term, and the
   maximum of per-word maxima is order-insensitive, so the same
   substitution argument holds trivially. *)

type incremental =
  | Inc_er of {
      len : int;
      golden_words : int array array;  (** borrowed per-PO word arrays *)
      base_or : int array;  (** per word: OR over POs of golden ^ base *)
      base_pop : int;
    }
  | Inc_mean of {
      len : int;
      nwords : int;
      npos : int;
      values : int array;  (** decoded golden output values (borrowed) *)
      weights : float array;  (** per-round multipliers (borrowed) *)
      fn : term_fn;
      base_contrib : float array;  (** per-word partial sums *)
      base_total : float;  (** fold of [base_contrib] in word order *)
    }
  | Inc_max of {
      len : int;
      nwords : int;
      npos : int;
      values : int array;
      weights : float array;
      fn : term_fn;
      base_wmax : float array;  (** per-word maximum term *)
      base_max : float;  (** maximum of [base_wmax] *)
    }

(* Decode the candidate's output values for the rounds of word [w] into
   [av.(0 .. nb-1)] (shared scratch, caller-allocated). *)
let decode_word ~npos ~get_word ~av w ~nb =
  Array.fill av 0 nb 0;
  for i = 0 to npos - 1 do
    let aw = get_word i w in
    if aw <> 0 then
      for r = 0 to nb - 1 do
        av.(r) <- av.(r) lor (((aw lsr r) land 1) lsl i)
      done
  done

let prepare_incremental prep ~approx =
  match prep with
  | Prep_er golden ->
      check_shapes golden approx;
      let len = num_rounds golden in
      let nwords = if len = 0 then 0 else Bitvec.num_words golden.(0) in
      let golden_words = Array.map Bitvec.unsafe_words golden in
      let approx_words = Array.map Bitvec.unsafe_words approx in
      let base_or = Array.make nwords 0 in
      for i = 0 to Array.length golden - 1 do
        let gw = golden_words.(i) and aw = approx_words.(i) in
        for w = 0 to nwords - 1 do
          base_or.(w) <- base_or.(w) lor (gw.(w) lxor aw.(w))
        done
      done;
      let base_pop = ref 0 in
      for w = 0 to nwords - 1 do
        base_pop := !base_pop + Bitvec.popcount_word base_or.(w)
      done;
      Inc_er { len; golden_words; base_or; base_pop = !base_pop }
  | Prep_mean { golden; values; weights; fn } ->
      check_shapes golden approx;
      let len = num_rounds golden in
      let nwords = if len = 0 then 0 else Bitvec.num_words golden.(0) in
      let av = output_values approx in
      let base_contrib = Array.make nwords 0.0 in
      for w = 0 to nwords - 1 do
        let lo = w * Bitvec.word_bits in
        let hi = min len (lo + Bitvec.word_bits) in
        let wacc = ref 0.0 in
        for m = lo to hi - 1 do
          wacc := !wacc +. round_term fn values weights av m
        done;
        base_contrib.(w) <- !wacc
      done;
      let base_total = ref 0.0 in
      for w = 0 to nwords - 1 do
        base_total := !base_total +. base_contrib.(w)
      done;
      Inc_mean
        {
          len;
          nwords;
          npos = Array.length golden;
          values;
          weights;
          fn;
          base_contrib;
          base_total = !base_total;
        }
  | Prep_max { golden; values; weights; fn } ->
      check_shapes golden approx;
      let len = num_rounds golden in
      let nwords = if len = 0 then 0 else Bitvec.num_words golden.(0) in
      let av = output_values approx in
      let base_wmax = Array.make nwords 0.0 in
      for w = 0 to nwords - 1 do
        let lo = w * Bitvec.word_bits in
        let hi = min len (lo + Bitvec.word_bits) in
        let wmax = ref 0.0 in
        for m = lo to hi - 1 do
          let t = round_term fn values weights av m in
          if t > !wmax then wmax := t
        done;
        base_wmax.(w) <- !wmax
      done;
      let base_max = ref 0.0 in
      for w = 0 to nwords - 1 do
        if base_wmax.(w) > !base_max then base_max := base_wmax.(w)
      done;
      Inc_max
        {
          len;
          nwords;
          npos = Array.length golden;
          values;
          weights;
          fn;
          base_wmax;
          base_max = !base_max;
        }

let incremental_base = function
  | Inc_er { len; base_pop; _ } ->
      if len = 0 then 0.0 else float_of_int base_pop /. float_of_int len
  | Inc_mean { len; base_total; _ } ->
      if len = 0 then 0.0 else base_total /. float_of_int len
  | Inc_max { len; base_max; _ } -> if len = 0 then 0.0 else base_max

let measure_incremental inc ~nchanged ~changed_words ~get_word =
  match inc with
  | Inc_er { len; golden_words; base_or; base_pop } ->
      if len = 0 then 0.0
      else begin
        let npos = Array.length golden_words in
        let delta = ref 0 in
        for k = 0 to nchanged - 1 do
          let w = changed_words.(k) in
          let new_or = ref 0 in
          for i = 0 to npos - 1 do
            new_or := !new_or lor (golden_words.(i).(w) lxor get_word i w)
          done;
          delta :=
            !delta + Bitvec.popcount_word !new_or - Bitvec.popcount_word base_or.(w)
        done;
        float_of_int (base_pop + !delta) /. float_of_int len
      end
  | Inc_mean { len; nwords; npos; values; weights; fn; base_contrib; _ } ->
      if len = 0 then 0.0
      else begin
        (* Recompute the contribution of each changed word (decoding output
           values for just its rounds), then re-fold ALL words in order. *)
        let av = Array.make Bitvec.word_bits 0 in
        let new_contrib = Array.make (max 1 nchanged) 0.0 in
        for k = 0 to nchanged - 1 do
          let w = changed_words.(k) in
          let lo = w * Bitvec.word_bits in
          let hi = min len (lo + Bitvec.word_bits) in
          let nb = hi - lo in
          decode_word ~npos ~get_word ~av w ~nb;
          let wacc = ref 0.0 in
          for m = lo to hi - 1 do
            wacc := !wacc +. (term fn values.(m) av.(m - lo) *. weights.(m))
          done;
          new_contrib.(k) <- !wacc
        done;
        let total = ref 0.0 and k = ref 0 in
        for w = 0 to nwords - 1 do
          let c =
            if !k < nchanged && changed_words.(!k) = w then begin
              let c = new_contrib.(!k) in
              incr k;
              c
            end
            else base_contrib.(w)
          in
          total := !total +. c
        done;
        !total /. float_of_int len
      end
  | Inc_max { len; nwords; npos; values; weights; fn; base_wmax; _ } ->
      if len = 0 then 0.0
      else begin
        let av = Array.make Bitvec.word_bits 0 in
        let new_wmax = Array.make (max 1 nchanged) 0.0 in
        for k = 0 to nchanged - 1 do
          let w = changed_words.(k) in
          let lo = w * Bitvec.word_bits in
          let hi = min len (lo + Bitvec.word_bits) in
          let nb = hi - lo in
          decode_word ~npos ~get_word ~av w ~nb;
          let wmax = ref 0.0 in
          for m = lo to hi - 1 do
            let t = term fn values.(m) av.(m - lo) *. weights.(m) in
            if t > !wmax then wmax := t
          done;
          new_wmax.(k) <- !wmax
        done;
        let worst = ref 0.0 and k = ref 0 in
        for w = 0 to nwords - 1 do
          let c =
            if !k < nchanged && changed_words.(!k) = w then begin
              let c = new_wmax.(!k) in
              incr k;
              c
            end
            else base_wmax.(w)
          in
          if c > !worst then worst := c
        done;
        !worst
      end

let compare_graphs ?weights kind ~original ~approx patterns =
  if Aig.Graph.num_pis original <> Aig.Graph.num_pis approx then
    invalid_arg "Metrics.compare_graphs: PI count mismatch";
  if Aig.Graph.num_pos original <> Aig.Graph.num_pos approx then
    invalid_arg "Metrics.compare_graphs: PO count mismatch";
  let golden = Sim.Engine.simulate_pos original patterns in
  let approx = Sim.Engine.simulate_pos approx patterns in
  measure ?weights kind ~golden ~approx

let evaluate ?(seed = 20260705) ?(sample = 1 lsl 17) kind ~original ~approx =
  let npis = Aig.Graph.num_pis original in
  let patterns =
    if Sim.Patterns.exhaustive_fits ~npis ~rounds:sample then
      Sim.Patterns.exhaustive ~npis
    else Sim.Patterns.random (Logic.Rng.create seed) ~npis ~len:sample
  in
  compare_graphs kind ~original ~approx patterns
