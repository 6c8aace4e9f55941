type approx_params = {
  metric : Errest.Metrics.kind;
  threshold : float;
  seed : int;
  eval_rounds : int;
  max_iters : int;
}

type request =
  | Ping
  | Load of {
      session : string;
      circuit : string;
      graph : string option;
      priority : int;
    }
  | Approx of {
      session : string;
      params : approx_params;
      deadline_s : float option;
    }
  | Metrics of { session : string; metric : Errest.Metrics.kind }
  | Cec of { session : string }
  | Get of { session : string }
  | Status
  | Evict of { session : string }
  | Shutdown

type error_code =
  | Timeout
  | Overloaded
  | Shedding
  | No_session
  | Bad_request
  | Busy
  | Internal

type response =
  | Ok of (string * string) list * string option
  | Err of { code : error_code; detail : string; retry_after_s : float option }

let code_to_string = function
  | Timeout -> "timeout"
  | Overloaded -> "overloaded"
  | Shedding -> "shedding"
  | No_session -> "no-session"
  | Bad_request -> "bad-request"
  | Busy -> "busy"
  | Internal -> "internal"

let code_of_string = function
  | "timeout" -> Some Timeout
  | "overloaded" -> Some Overloaded
  | "shedding" -> Some Shedding
  | "no-session" -> Some No_session
  | "bad-request" -> Some Bad_request
  | "busy" -> Some Busy
  | "internal" -> Some Internal
  | _ -> None

let valid_session_name s =
  let n = String.length s in
  n > 0 && n <= 64
  && s.[0] <> '.'
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true
         | _ -> false)
       s

module Record = Circuit_io.Record

let request_header = "alsrac-req 1"
let response_header = "alsrac-resp 1"

(* ---------- Encoding ---------- *)

let encode_request req =
  let kind = Errest.Metrics.kind_to_string and float = Record.float_to_string in
  let fields, graph =
    match req with
    | Ping -> ([ ("verb", "ping") ], None)
    | Load { session; circuit; graph; priority } ->
        ( [
            ("verb", "load");
            ("session", session);
            ("circuit", circuit);
            ("priority", string_of_int priority);
          ],
          graph )
    | Approx { session; params; deadline_s } ->
        ( [
            ("verb", "approx");
            ("session", session);
            ("metric", kind params.metric);
            ("threshold", float params.threshold);
            ("seed", string_of_int params.seed);
            ("eval-rounds", string_of_int params.eval_rounds);
            ("max-iters", string_of_int params.max_iters);
          ]
          @ Option.fold ~none:[] ~some:(fun d -> [ ("deadline", float d) ]) deadline_s,
          None )
    | Metrics { session; metric } ->
        ([ ("verb", "metrics"); ("session", session); ("metric", kind metric) ], None)
    | Cec { session } -> ([ ("verb", "cec"); ("session", session) ], None)
    | Get { session } -> ([ ("verb", "get"); ("session", session) ], None)
    | Status -> ([ ("verb", "status") ], None)
    | Evict { session } -> ([ ("verb", "evict"); ("session", session) ], None)
    | Shutdown -> ([ ("verb", "shutdown") ], None)
  in
  Record.encode ~header:request_header ?blob:graph fields

let encode_response resp =
  let fields, graph =
    match resp with
    | Ok (kvs, graph) -> (("status", "ok") :: kvs, graph)
    | Err { code; detail; retry_after_s } ->
        ( [
            ("status", "err");
            ("code", code_to_string code);
            ("detail", String.escaped detail);
          ]
          @ Option.fold ~none:[]
              ~some:(fun r -> [ ("retry-after", Record.float_to_string r) ])
              retry_after_s,
          None )
  in
  Record.encode ~header:response_header ?blob:graph fields

(* ---------- Decoding ---------- *)

let session_of r =
  let s = Record.get r "session" in
  if not (valid_session_name s) then
    Record.fail r (Printf.sprintf "invalid session name %S" s);
  s

let metric_of r = Record.get_as r "metric" Errest.Metrics.kind_of_string

(* A NaN threshold would compare false against every candidate error and
   let the flow delete the circuit; refuse it (and a negative one) here. *)
let threshold_of r =
  let t = Record.float r "threshold" in
  if not (t >= 0.0) then Record.fail r "threshold must be a non-negative number";
  t

let decode_request payload =
  let r = Record.decode ~what:"protocol request" ~header:request_header payload in
  match Record.get r "verb" with
  | "ping" -> Ping
  | "load" ->
      Load
        {
          session = session_of r;
          circuit = Record.get r "circuit";
          graph = Record.blob r;
          priority = Record.int r "priority";
        }
  | "approx" ->
      Approx
        {
          session = session_of r;
          params =
            {
              metric = metric_of r;
              threshold = threshold_of r;
              seed = Record.int r "seed";
              eval_rounds = Record.int r "eval-rounds";
              max_iters = Record.int r "max-iters";
            };
          deadline_s = Record.find_as r "deadline" Record.float_of_string;
        }
  | "metrics" -> Metrics { session = session_of r; metric = metric_of r }
  | "cec" -> Cec { session = session_of r }
  | "get" -> Get { session = session_of r }
  | "status" -> Status
  | "evict" -> Evict { session = session_of r }
  | "shutdown" -> Shutdown
  | v -> Record.fail r (Printf.sprintf "unknown verb %S" v)

let decode_response payload =
  let r = Record.decode ~what:"protocol response" ~header:response_header payload in
  match Record.get r "status" with
  | "ok" -> Ok (List.filter (fun (k, _) -> k <> "status") (Record.fields r), Record.blob r)
  | "err" ->
      Err
        {
          code = Record.get_as r "code" code_of_string;
          detail =
            Record.get_as r "detail" (fun d ->
                try Some (Scanf.unescaped d) with Scanf.Scan_failure _ -> None);
          retry_after_s = Record.find_as r "retry-after" Record.float_of_string;
        }
  | s -> Record.fail r (Printf.sprintf "bad status %S" s)
