(* Tests of the benchmark's own parts: the independent checker against the
   library's metrics and against a brute-force oracle, and the metric names
   against the contract and BENCHMARK.json. *)

module G = Aig.Graph
module Checker = Perfbench.Checker
module Spec = Perfbench.Spec

let build name = G.compact ((Option.get (Circuits.Suite.find name)).Circuits.Suite.build ())

(* An approximation: every [stride]-th AND node replaced by a constant. *)
let perturb ?(stride = 17) g =
  G.rebuild
    ~replace:(fun id ->
      if G.is_and g id && id mod stride = 0 then
        Some (G.Replace_lit (if id mod 2 = 0 then G.const0 else G.const1))
      else None)
    g

let parse g = Checker.parse (Circuit_io.Aiger.graph_to_string g)

let checked ~original ~approx src =
  match Checker.compare (Checker.golden (parse original) src) (parse approx) with
  | Ok r -> r
  | Error msg -> Alcotest.fail msg

let close what expected actual =
  let tol = 1e-9 *. Float.max 1.0 (Float.abs expected) in
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.17g, got %.17g" what expected actual

(* ---------- Brute-force oracle ---------- *)

(* Output value of [g] on minterm [m], by direct evaluation of every node. *)
let eval_minterm g m =
  let v = Array.make (G.num_nodes g) false in
  let lit l = v.(G.node_of l) <> G.is_compl l in
  for id = 0 to G.num_nodes g - 1 do
    if G.is_pi g id then v.(id) <- (m lsr G.pi_index g id) land 1 = 1
    else if G.is_and g id then v.(id) <- lit (G.fanin0 g id) && lit (G.fanin1 g id)
  done;
  let out = ref 0 in
  for po = G.num_pos g - 1 downto 0 do
    out := (!out lsl 1) lor if lit (G.po_lit g po) then 1 else 0
  done;
  !out

let oracle ~original ~approx =
  let n = 1 lsl G.num_pis original in
  let differ = ref 0 and ed = ref 0.0 and red = ref 0.0 in
  for m = 0 to n - 1 do
    let g = eval_minterm original m and a = eval_minterm approx m in
    if g <> a then begin
      incr differ;
      let d = float_of_int (abs (g - a)) in
      ed := !ed +. d;
      red := !red +. (d /. float_of_int (max g 1))
    end
  done;
  let fn = float_of_int n in
  let maxval = (2.0 ** float_of_int (G.num_pos original)) -. 1.0 in
  (float_of_int !differ /. fn, !ed /. fn /. maxval, !red /. fn)

let library ~original ~approx pats =
  let m k = Errest.Metrics.compare_graphs k ~original ~approx pats in
  (m Errest.Metrics.Er, m Errest.Metrics.Nmed, m Errest.Metrics.Mred)

let test_oracle name () =
  let original = build name in
  let approx = perturb original in
  let er, nmed, mred = oracle ~original ~approx in
  if er = 0.0 then Alcotest.fail "perturbation left the function unchanged";
  let r = checked ~original ~approx (Checker.Exhaustive (G.num_pis original)) in
  close "checker er" er r.Checker.er;
  close "checker nmed" nmed r.Checker.nmed;
  close "checker mred" mred r.Checker.mred;
  let l_er, l_nmed, l_mred =
    library ~original ~approx (Sim.Patterns.exhaustive ~npis:(G.num_pis original))
  in
  close "library er" er l_er;
  close "library nmed" nmed l_nmed;
  close "library mred" mred l_mred

(* ---------- Shared patterns ---------- *)

let test_shared name () =
  let original = build name in
  let approx = perturb ~stride:29 original in
  let rounds = 3000 in
  let pats =
    Sim.Patterns.random (Logic.Rng.create 7) ~npis:(G.num_pis original) ~len:rounds
  in
  let src = Checker.Given { rounds; bit = (fun pi r -> Logic.Bitvec.get pats.(pi) r) } in
  let r = checked ~original ~approx src in
  let l_er, l_nmed, l_mred = library ~original ~approx pats in
  if l_er = 0.0 then Alcotest.fail "perturbation left the sample unchanged";
  close "er" l_er r.Checker.er;
  close "nmed" l_nmed r.Checker.nmed;
  close "mred" l_mred r.Checker.mred

let test_equal_is_zero () =
  let g = build "c880" in
  let r = checked ~original:g ~approx:(G.compact g) (Checker.source_for ~npis:22 ~seed:3) in
  Alcotest.(check int) "differing" 0 r.Checker.differing;
  Alcotest.(check int) "exhaustive rounds" (1 lsl 22) r.Checker.rounds

let test_random_source_is_seeded () =
  let g = build "adder" in
  let approx = perturb g in
  let run seed =
    (checked ~original:g ~approx (Checker.source_for ~npis:(G.num_pis g) ~seed)).Checker.er
  in
  Alcotest.(check (float 0.0)) "same seed" (run 5) (run 5);
  if run 5 = run 6 then Alcotest.fail "different seeds gave the same sample"

let test_interface_mismatch () =
  let a = parse (build "cavlc") and b = parse (build "ctrl") in
  match Checker.compare (Checker.golden a (Checker.Exhaustive a.Checker.npis)) b with
  | Ok _ -> Alcotest.fail "mismatched interfaces compared"
  | Error _ -> ()

let test_rejects_cycle () =
  match Checker.parse "aag 3 1 0 1 2\n2\n6\n4 2 6\n6 4 2\n" with
  | _ -> Alcotest.fail "cycle accepted"
  | exception Failure _ -> ()

(* ---------- Metric names ---------- *)

let test_names_valid () =
  List.iter
    (fun (name, _) ->
      if not (Spec.valid_name name && String.length name <= 64) then
        Alcotest.failf "bad metric name %S" name)
    (Spec.end_to_end @ Spec.per_layer)

let test_names_in_benchmark_json () =
  let json = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let count sub =
    let n = ref 0 and i = ref 0 in
    let ls = String.length sub in
    while !i + ls <= String.length json do
      if String.sub json !i ls = sub then incr n;
      incr i
    done;
    !n
  in
  List.iter
    (fun name ->
      if count (Printf.sprintf "\"name\": %S" name) <> 1 then
        Alcotest.failf "%s is not listed exactly once in BENCHMARK.json" name)
    (Spec.workloads @ List.map fst (Spec.end_to_end @ Spec.per_layer));
  Alcotest.(check int)
    "no other names"
    (List.length Spec.workloads + List.length Spec.end_to_end + List.length Spec.per_layer)
    (count "\"name\":")

let () =
  Alcotest.run "perfbench"
    [
      ( "checker",
        [
          Alcotest.test_case "oracle ctrl" `Quick (test_oracle "ctrl");
          Alcotest.test_case "oracle cavlc" `Quick (test_oracle "cavlc");
          Alcotest.test_case "oracle int2float" `Quick (test_oracle "int2float");
          Alcotest.test_case "oracle sine" `Quick (test_oracle "sine");
          Alcotest.test_case "shared patterns c880" `Quick (test_shared "c880");
          Alcotest.test_case "shared patterns adder" `Quick (test_shared "adder");
          Alcotest.test_case "shared patterns log2" `Quick (test_shared "log2");
          Alcotest.test_case "equal circuits" `Quick test_equal_is_zero;
          Alcotest.test_case "random source seeded" `Quick test_random_source_is_seeded;
          Alcotest.test_case "interface mismatch" `Quick test_interface_mismatch;
          Alcotest.test_case "rejects cycle" `Quick test_rejects_cycle;
        ] );
      ( "names",
        [
          Alcotest.test_case "valid" `Quick test_names_valid;
          Alcotest.test_case "match BENCHMARK.json" `Quick test_names_in_benchmark_json;
        ] );
    ]
