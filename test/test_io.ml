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

(* ---------- Record codec ---------- *)

module Record = Circuit_io.Record

let record_gen =
  let open QCheck.Gen in
  let key =
    string_size ~gen:(oneofl [ 'a'; 'k'; 'z'; '0'; '_'; '-'; '.'; 'g' ]) (int_range 1 6)
    >|= fun k -> if k = "graph" then "graph_" else k
  in
  (* Any byte but a newline, so values with spaces and "end" are common. *)
  let value =
    string_size ~gen:(map (fun c -> if c = '\n' then ' ' else c) char) (int_range 0 12)
  in
  let blob =
    opt
      (oneof
         [
           string_size (int_range 0 64);
           map (fun s -> s ^ "end\n") (string_size (int_range 0 8));
           return "end\n";
         ])
  in
  (* Few distinct keys: repeats are the rule. *)
  triple (list_size (int_range 0 10) (pair key value)) blob (oneofl [ "x 1"; "rec 7" ])

let prop_record_roundtrip =
  QCheck.Test.make ~name:"record round-trip" ~count:500 (QCheck.make record_gen)
    (fun (fields, blob, header) ->
      let r = Record.decode ~what:"test" ~header (Record.encode ~header ?blob fields) in
      Record.fields r = fields && Record.blob r = blob)

let test_record_floats () =
  let floats =
    [ infinity; neg_infinity; -0.0; 0.0; 5e-324; 0x1.8p-1030; max_float; 0.1; -3.75 ]
  in
  let text =
    Record.encode ~header:"f 1"
      (List.mapi (fun i f -> (string_of_int i, Record.float_to_string f)) floats
      @ [ ("nan", Record.float_to_string Float.nan) ])
  in
  let r = Record.decode ~what:"floats" ~header:"f 1" text in
  List.iteri
    (fun i f ->
      check (Printf.sprintf "%h bit-exact" f) true
        (Int64.equal (Int64.bits_of_float f)
           (Int64.bits_of_float (Record.float r (string_of_int i)))))
    floats;
  check "nan survives" true (Float.is_nan (Record.float r "nan"));
  check "inf spelled inf" true (Record.get r "0" = "inf" && Record.get r "1" = "-inf")

(* Every malformed record fails with [Failure], never another exception. *)
let test_record_hostile () =
  let good = Record.encode ~header:"h 2" ~blob:"aag 0 0 0 0 0\nend\n" [ ("k", "v w") ] in
  let blob_at = String.index good 'a' in
  let flip s i =
    String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c) s
  in
  let cases =
    [
      ("truncated blob", String.sub good 0 (blob_at + 5));
      ("length past the payload", "h 2\ngraph 999 0\nabc\nend\n");
      ("negative length", "h 2\ngraph -1 0\n\nend\n");
      ("checksum mismatch", flip good (blob_at + 2));
      ("missing end", "h 2\nk v\n");
      ("missing end after blob", String.sub good 0 (String.length good - 4));
      ("line without a space", "h 2\nnospace\nend\n");
      ("bytes after end", good ^ "k v\n");
      ("bad header", "nonsense\nend\n");
      ("empty", "");
      ("outdated header", "h 1\nk v\nend\n");
    ]
  in
  List.iter
    (fun (name, text) ->
      match Record.decode ~what:"hostile" ~header:"h 2" text with
      | _ -> Alcotest.failf "%s: accepted" name
      | exception Failure msg ->
          check (name ^ ": names the record") true (Util.contains msg "hostile")
      | exception e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e))
    cases;
  (match Record.decode ~what:"old" ~header:"h 2" "h 1\nend\n" with
  | _ -> Alcotest.fail "accepted an outdated header"
  | exception Failure msg ->
      check "names the old version" true (Util.contains msg "\"h 1\"");
      check "asks for a re-run" true (Util.contains msg "re-run"));
  let r = Record.decode ~what:"typed" ~header:"h 2" "h 2\nn x\nend" in
  List.iter
    (fun (name, f) ->
      match f () with
      | _ -> Alcotest.failf "%s: accepted" name
      | exception Failure msg ->
          check (name ^ ": names record and key") true
            (Util.contains msg "typed" && Util.contains msg "n"))
    [
      ("bad int", fun () -> ignore (Record.int r "n"));
      ("missing key", fun () -> ignore (Record.get r "missing"));
    ]

(* Protocol bytes must not change: payloads encoded before the shared
   record codec existed decode and re-encode byte-identically. *)
let test_record_protocol_pin () =
  let requests =
    [
      "alsrac-req 1\nverb approx\nsession s1\nmetric nmed\nthreshold 0x1.930be0ded288dp-7\n\
       seed 7\neval-rounds 2048\nmax-iters 50\ndeadline inf\nend\n";
      "alsrac-req 1\nverb load\nsession s2\ncircuit -\npriority 3\ngraph 22 847044287\n\
       aag 1 1 0 1 0\n2\n2\nend\n\nend\n";
    ]
  and responses =
    [
      "alsrac-resp 1\nstatus ok\nsession a\nsession b two\nands \ngraph 14 356273595\n\
       aag 0 0 0 0 0\n\nend\n";
      "alsrac-resp 1\nstatus err\ncode overloaded\ndetail queue\\tfull \\\"x\\\"\\n\n\
       retry-after -0x0p+0\nend\n";
    ]
  in
  List.iter
    (fun bytes ->
      check "request re-encodes byte-identically" true
        (Serve.Protocol.encode_request (Serve.Protocol.decode_request bytes) = bytes))
    requests;
  List.iter
    (fun bytes ->
      check "response re-encodes byte-identically" true
        (Serve.Protocol.encode_response (Serve.Protocol.decode_response bytes) = bytes))
    responses

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
      ( "record",
        [
          Alcotest.test_case "floats" `Quick test_record_floats;
          Alcotest.test_case "hostile input" `Quick test_record_hostile;
          Alcotest.test_case "protocol bytes pinned" `Quick test_record_protocol_pin;
        ]
        @ Util.qcheck_cases [ prop_record_roundtrip ] );
      ( "verilog-dot",
        [
          Alcotest.test_case "verilog" `Quick test_verilog_output;
          Alcotest.test_case "dot" `Quick test_dot_output;
        ] );
    ]
