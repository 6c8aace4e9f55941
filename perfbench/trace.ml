(* In-memory spans for the traced run.

   A span records its layer name, start, end and the span that was open when
   it started.  Spans are kept in memory and written out once, when the
   benchmark ends.  A layer's self time is its spans' durations minus the
   parts covered by their child spans. *)

let now = Unix.gettimeofday

type span = { id : int; parent : int; name : string; start : float; stop : float }

let spans : span list ref = ref []
let open_stack : int list ref = ref []
let next_id = ref 0

(* Spans opened from now on have ids at or above [mark ()]. *)
let mark () = !next_id

let with_span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_stack with p :: _ -> p | [] -> -1 in
  open_stack := id :: !open_stack;
  let start = now () in
  Fun.protect
    ~finally:(fun () ->
      let stop = now () in
      open_stack := List.tl !open_stack;
      spans := { id; parent; name; start; stop } :: !spans)
    f

(* Self time per span name, summed over the spans opened since [since]. *)
let self_times ?(since = 0) () =
  let spans = List.filter (fun s -> s.id >= since) !spans in
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.stop -. s.start) +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.0))
    spans;
  let self = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let covered = Option.value (Hashtbl.find_opt child s.id) ~default:0.0 in
      let prev = Option.value (Hashtbl.find_opt self s.name) ~default:0.0 in
      Hashtbl.replace self s.name (prev +. (s.stop -. s.start -. covered)))
    spans;
  self

let self_time tbl name = Option.value (Hashtbl.find_opt tbl name) ~default:0.0

let write path =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc "%s{\"id\":%d,\"parent\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f}\n"
        (if i = 0 then "" else ",")
        s.id s.parent s.name s.start s.stop)
    (List.rev !spans);
  output_string oc "]\n";
  close_out oc
