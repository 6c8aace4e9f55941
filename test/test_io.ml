module Graph = Aig.Graph

let check = Alcotest.(check bool)

let sample_graph () =
  let g = Graph.create ~name:"sample" () in
  let a = Graph.add_pi ~name:"a" g in
  let b = Graph.add_pi ~name:"b" g in
  let c = Graph.add_pi ~name:"c" g in
  let ab = Graph.and_ g a (Graph.lit_not b) in
  let y = Aig.Builder.xor g ab c in
  ignore (Graph.add_po ~name:"y" g y);
  ignore (Graph.add_po ~name:"z" g (Graph.lit_not ab));
  ignore (Graph.add_po ~name:"k0" g Graph.const0);
  ignore (Graph.add_po ~name:"k1" g Graph.const1);
  g

let test_blif_roundtrip () =
  let g = sample_graph () in
  let text = Circuit_io.Blif.graph_to_string g in
  let g' = Circuit_io.Blif.parse text in
  check "same PI count" true (Graph.num_pis g' = Graph.num_pis g);
  check "same PO count" true (Graph.num_pos g' = Graph.num_pos g);
  check "equivalent" true (Util.equivalent g g')

let prop_blif_roundtrip =
  QCheck.Test.make ~name:"blif roundtrip on random graphs" ~count:30
    QCheck.(make Gen.(int_range 0 100000))
    (fun seed ->
      let rng = Logic.Rng.create seed in
      let g = Util.random_graph rng ~npis:5 ~nands:30 in
      Util.equivalent g (Circuit_io.Blif.parse (Circuit_io.Blif.graph_to_string g)))

let test_blif_out_of_order () =
  (* .names sections referencing signals defined later. *)
  let text =
    ".model weird\n.inputs a b\n.outputs y\n.names t y\n1 1\n.names a b t\n11 1\n.end\n"
  in
  let g = Circuit_io.Blif.parse text in
  check "a&b" true
    ((Util.eval_naive g [| true; true |]).(0)
    && not (Util.eval_naive g [| true; false |]).(0))

let test_blif_off_set_cover () =
  (* Output column 0: the OFF-set is given, function is its complement. *)
  let text = ".model m\n.inputs a\n.outputs y\n.names a y\n1 0\n.end\n" in
  let g = Circuit_io.Blif.parse text in
  check "y = !a" true
    ((Util.eval_naive g [| false |]).(0) && not (Util.eval_naive g [| true |]).(0))

let test_blif_multi_cube () =
  let text =
    ".model m\n.inputs a b c\n.outputs y\n.names a b c y\n11- 1\n--1 1\n.end\n"
  in
  let g = Circuit_io.Blif.parse text in
  for m = 0 to 7 do
    let inputs = Util.bools_of_int m 3 in
    let expected = (inputs.(0) && inputs.(1)) || inputs.(2) in
    check "ab + c" expected (Util.eval_naive g inputs).(0)
  done

let test_blif_rejects_latch () =
  Alcotest.check_raises "latch" (Failure "blif:4: unsupported BLIF construct .latch")
    (fun () ->
      ignore
        (Circuit_io.Blif.parse ".model m\n.inputs a\n.outputs y\n.latch a y\n.end\n"))

let test_blif_rejects_loop () =
  let text = ".model m\n.inputs a\n.outputs y\n.names y a y\n11 1\n.end\n" in
  Alcotest.check_raises "loop" (Failure "blif: combinational loop through y") (fun () ->
      ignore (Circuit_io.Blif.parse text))

let test_blif_undefined_signal () =
  Alcotest.check_raises "undefined" (Failure "blif: undefined signal ghost") (fun () ->
      ignore (Circuit_io.Blif.parse ".model m\n.inputs a\n.outputs ghost\n.end\n"))

let test_bench_roundtrip () =
  let g = sample_graph () in
  let g' = Circuit_io.Bench_fmt.parse (Circuit_io.Bench_fmt.graph_to_string g) in
  check "equivalent" true (Util.equivalent g g')

let prop_bench_roundtrip =
  QCheck.Test.make ~name:"bench roundtrip on random graphs" ~count:30
    QCheck.(make Gen.(int_range 0 100000))
    (fun seed ->
      let rng = Logic.Rng.create seed in
      let g = Util.random_graph rng ~npis:5 ~nands:30 in
      Util.equivalent g (Circuit_io.Bench_fmt.parse (Circuit_io.Bench_fmt.graph_to_string g)))

let test_bench_gates () =
  let text =
    "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nt = NAND(a, b)\nu = XOR(a, b)\ny = OR(t, u)\n"
  in
  let g = Circuit_io.Bench_fmt.parse text in
  for m = 0 to 3 do
    let inputs = Util.bools_of_int m 2 in
    let expected =
      (not (inputs.(0) && inputs.(1))) || inputs.(0) <> inputs.(1)
    in
    check "nand|xor" expected (Util.eval_naive g inputs).(0)
  done

let test_mapped_blif_parses_back () =
  let g = sample_graph () in
  let mapped = Techmap.Lutmap.run g in
  let text = Circuit_io.Blif.mapped_to_string mapped in
  let g' = Circuit_io.Blif.parse text in
  check "mapped blif equivalent to source" true (Util.equivalent g g')

let contains = Util.contains

let test_verilog_output () =
  let g = sample_graph () in
  let text = Circuit_io.Verilog.graph_to_string g in
  check "has module" true (contains text "module sample");
  let mapped = Techmap.Cellmap.run g in
  let vtext = Circuit_io.Verilog.mapped_to_string mapped in
  check "mapped verilog has endmodule" true (contains vtext "endmodule");
  check "mapped verilog has assigns" true (contains vtext "assign")

let test_dot_output () =
  let g = sample_graph () in
  let text = Circuit_io.Dot.graph_to_string g in
  check "digraph" true (String.sub text 0 7 = "digraph");
  check "dashed complement edges" true (contains text "style=dashed")

let test_file_roundtrip () =
  let g = sample_graph () in
  let path = Filename.temp_file "alsrac" ".blif" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Circuit_io.Blif.write_graph path g;
      check "file parse" true (Util.equivalent g (Circuit_io.Blif.read path)))

(* ---------- AIGER ---------- *)

let test_aiger_roundtrip () =
  let g = sample_graph () in
  let g' = Circuit_io.Aiger.parse (Circuit_io.Aiger.graph_to_string g) in
  check "equivalent" true (Util.equivalent g g');
  Alcotest.(check string) "pi name preserved" "a" (Graph.pi_name g' 0);
  Alcotest.(check string) "po name preserved" "y" (Graph.po_name g' 0)

let prop_aiger_roundtrip =
  QCheck.Test.make ~name:"aiger roundtrip on random graphs" ~count:30
    QCheck.(make Gen.(int_range 0 100000))
    (fun seed ->
      let rng = Logic.Rng.create seed in
      let g = Util.random_graph rng ~npis:5 ~nands:30 in
      Util.equivalent g (Circuit_io.Aiger.parse (Circuit_io.Aiger.graph_to_string g)))

let test_aiger_rejects_binary () =
  Alcotest.check_raises "binary aig"
    (Failure "aiger:1: only the ASCII (aag) variant is supported") (fun () ->
      ignore (Circuit_io.Aiger.parse "aig 3 1 0 1 1
"))

let test_aiger_rejects_latches () =
  Alcotest.check_raises "latches" (Failure "aiger:1: latches are not supported")
    (fun () -> ignore (Circuit_io.Aiger.parse "aag 3 1 1 1 0
2
4 2
4
"))

(* ---------- Hostile input ---------- *)

(* A parser fed a corrupted stream must either produce a graph or raise
   [Failure] — nothing else may escape, and it must not allocate
   proportionally to counts a hostile header merely claims. *)
let only_failure name parse text =
  match parse text with
  | (_ : Graph.t) -> ()
  | exception Failure _ -> ()
  | exception e ->
      Alcotest.failf "%s leaked %s on %S" name (Printexc.to_string e) text

let test_aiger_hostile_header () =
  (* A billion declared ANDs backed by four lines of text: must fail fast
     with a line-numbered Failure, before any table is allocated. *)
  let bomb = "aag 1000000000 1 0 1 999999998\n2\n2\n4 2 2\n" in
  (match Circuit_io.Aiger.parse bomb with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
      check "line-numbered" true (String.length msg >= 8 && String.sub msg 0 8 = "aiger:1:"));
  List.iter
    (only_failure "aiger" Circuit_io.Aiger.parse)
    [
      "";
      "aag 3 -1 0 1 1\n";            (* negative count *)
      "aag 5 2 0 2 3\n2\n4\n";        (* declares more than present *)
      "aag 99 2 0 1 2\n2\n4\n6\n6 2 4\n8 6 2\n" (* m exceeds definitions *);
      "aag 3 1 0 1 1\n2\n6\n6 99 2\n" (* literal out of range *);
      "aag 3 1 0 1 1\n2\n6\n2 2 2\n"  (* redefines an input *);
      "aag 2 1 0 1 1\n2\n4\n4 4 2\n"  (* AND depends on itself *);
    ]

let test_blif_hostile_input () =
  List.iter
    (only_failure "blif" Circuit_io.Blif.parse)
    [
      "";
      ".model m\n.inputs a\n.outputs y\n.names a y\n";
      ".model m\n.outputs y\n.names y\n11 1\n.end\n";
      ".model m\n.inputs a\n.outputs y\n.names a y\nxx 1\n.end\n";
    ]

(* Dropping any single character from well-formed text must never make the
   parser throw anything but [Failure].  (Most drops still parse — AIGER
   symbol tables are free-form — the point is what escapes when they don't.) *)
let truncation_prop name to_string parse =
  QCheck.Test.make ~name ~count:40
    QCheck.(make Gen.(int_range 0 100000))
    (fun seed ->
      let rng = Logic.Rng.create seed in
      let g = Util.random_graph rng ~npis:4 ~nands:12 in
      let text = to_string g in
      let n = String.length text in
      for i = 0 to n - 1 do
        let cut = String.sub text 0 i ^ String.sub text (i + 1) (n - i - 1) in
        only_failure name parse cut
      done;
      (* Byte-level truncation, as a torn write would leave behind. *)
      for keep = 0 to min 80 n do
        only_failure name parse (String.sub text 0 keep)
      done;
      true)

let prop_aiger_truncation =
  truncation_prop "aiger survives single-char corruption"
    Circuit_io.Aiger.graph_to_string Circuit_io.Aiger.parse

let prop_blif_truncation =
  truncation_prop "blif survives single-char corruption"
    Circuit_io.Blif.graph_to_string Circuit_io.Blif.parse

let test_atomic_write_replaces () =
  let path = Filename.temp_file "alsrac_atomic" ".txt" in
  Circuit_io.Atomic_file.write path "first";
  check "write" true (Circuit_io.Atomic_file.read path = "first");
  Circuit_io.Atomic_file.write path "second, longer than the first";
  check "replace" true (Circuit_io.Atomic_file.read path = "second, longer than the first");
  (* No temp litter left next to the target. *)
  let dir = Filename.dirname path and base = Filename.basename path in
  let litter =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           String.length f > String.length base
           && String.sub f 0 (String.length base) = base)
  in
  check "no temp files left behind" true (litter = []);
  Sys.remove path

let test_aiger_known_file () =
  (* The canonical half-adder example: s = a^b, c = a&b. *)
  let text =
    "aag 5 2 0 2 3
2
4
10
6
6 2 4
8 3 5
10 7 9
i0 a
i1 b
o0 s
o1 c
"
  in
  let g = Circuit_io.Aiger.parse text in
  for m = 0 to 3 do
    let inputs = Util.bools_of_int m 2 in
    let out = Util.eval_naive g inputs in
    check "sum" (inputs.(0) <> inputs.(1)) out.(0);
    check "carry" (inputs.(0) && inputs.(1)) out.(1)
  done

let () =
  Alcotest.run "io"
    [
      ( "blif",
        [
          Alcotest.test_case "roundtrip" `Quick test_blif_roundtrip;
          Alcotest.test_case "out of order" `Quick test_blif_out_of_order;
          Alcotest.test_case "off-set cover" `Quick test_blif_off_set_cover;
          Alcotest.test_case "multi cube" `Quick test_blif_multi_cube;
          Alcotest.test_case "rejects latch" `Quick test_blif_rejects_latch;
          Alcotest.test_case "rejects loop" `Quick test_blif_rejects_loop;
          Alcotest.test_case "undefined signal" `Quick test_blif_undefined_signal;
          Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
          Alcotest.test_case "mapped netlist" `Quick test_mapped_blif_parses_back;
        ]
        @ Util.qcheck_cases [ prop_blif_roundtrip ] );
      ( "bench",
        [
          Alcotest.test_case "roundtrip" `Quick test_bench_roundtrip;
          Alcotest.test_case "gate zoo" `Quick test_bench_gates;
        ]
        @ Util.qcheck_cases [ prop_bench_roundtrip ] );
      ( "aiger",
        [
          Alcotest.test_case "roundtrip" `Quick test_aiger_roundtrip;
          Alcotest.test_case "rejects binary" `Quick test_aiger_rejects_binary;
          Alcotest.test_case "rejects latches" `Quick test_aiger_rejects_latches;
          Alcotest.test_case "half adder" `Quick test_aiger_known_file;
        ]
        @ Util.qcheck_cases [ prop_aiger_roundtrip ] );
      ( "hostile",
        [
          Alcotest.test_case "aiger hostile header" `Quick test_aiger_hostile_header;
          Alcotest.test_case "blif hostile input" `Quick test_blif_hostile_input;
          Alcotest.test_case "atomic write" `Quick test_atomic_write_replaces;
        ]
        @ Util.qcheck_cases [ prop_aiger_truncation; prop_blif_truncation ] );
      ( "verilog-dot",
        [
          Alcotest.test_case "verilog" `Quick test_verilog_output;
          Alcotest.test_case "dot" `Quick test_dot_output;
        ] );
    ]
