let float_to_string f =
  if f = infinity then "inf"
  else if f = neg_infinity then "-inf"
  else Printf.sprintf "%h" f

let float_of_string = function
  | "inf" -> Some infinity
  | "-inf" -> Some neg_infinity
  | s -> float_of_string_opt s

let checksum s =
  let h = ref 0 in
  String.iter (fun ch -> h := ((!h * 131) + Char.code ch) land 0x3FFFFFFF) s;
  !h

let blob_key = "graph"

let encode ~header ?blob fields =
  let b = Buffer.create 256 in
  let line s =
    Buffer.add_string b s;
    Buffer.add_char b '\n'
  in
  line header;
  List.iter
    (fun (k, v) ->
      if k = "" || k = blob_key || String.contains k ' ' || String.contains k '\n'
      then invalid_arg (Printf.sprintf "Record.encode: bad key %S" k);
      if String.contains v '\n' then
        invalid_arg (Printf.sprintf "Record.encode: newline in the value of %s" k);
      line (k ^ " " ^ v))
    fields;
  Option.iter
    (fun bytes ->
      line (Printf.sprintf "%s %d %d" blob_key (String.length bytes) (checksum bytes));
      line bytes)
    blob;
  line "end";
  Buffer.contents b

type t = { what : string; fields : (string * string) list; blob : string option }

let first_line text =
  match String.index_opt text '\n' with Some i -> String.sub text 0 i | None -> text

(* "<format> <version>" of the same format at a lower, positive version. *)
let outdated ~header text =
  match
    (String.split_on_char ' ' (first_line text), String.split_on_char ' ' header)
  with
  | [ name; v ], [ name'; v' ] when name = name' -> (
      match (int_of_string_opt v, int_of_string_opt v') with
      | Some v, Some v' -> v >= 1 && v < v'
      | _ -> false)
  | _ -> false

let decode ~what ~header text =
  let fail fmt = Printf.ksprintf (fun msg -> failwith (what ^ ": " ^ msg)) fmt in
  let len = String.length text in
  let pos = ref 0 and lineno = ref 0 in
  (* The final line may lack its newline: only [end] can be final. *)
  let next_line () =
    if !pos >= len then fail "truncated: no end marker";
    incr lineno;
    let stop = Option.value (String.index_from_opt text !pos '\n') ~default:len in
    let l = String.sub text !pos (stop - !pos) in
    pos := stop + 1;
    l
  in
  if next_line () <> header then
    if outdated ~header text then
      fail "format %S is no longer supported (this build reads %S); re-run from scratch"
        (first_line text) header
    else fail "expected header %S" header;
  let read_blob spec =
    let n, sum =
      match List.map int_of_string_opt (String.split_on_char ' ' spec) with
      | [ Some n; Some sum ] -> (n, sum)
      | _ -> fail "bad %s line %d" blob_key !lineno
    in
    (* [n] bytes plus their newline must lie inside the input. *)
    if n < 0 || n >= len - !pos then
      fail "%s blob of %d bytes overruns the record" blob_key n;
    let bytes = String.sub text !pos n in
    pos := !pos + n;
    if text.[!pos] <> '\n' then fail "%s blob is not newline-terminated" blob_key;
    incr pos;
    if checksum bytes <> sum then fail "%s checksum mismatch" blob_key;
    bytes
  in
  let rec body acc =
    match next_line () with
    | "end" -> (List.rev acc, None)
    | l -> (
        match String.index_opt l ' ' with
        | None -> fail "line %d has no space" !lineno
        | Some i ->
            let key = String.sub l 0 i
            and value = String.sub l (i + 1) (String.length l - i - 1) in
            if key = blob_key then begin
              let bytes = read_blob value in
              if next_line () <> "end" then fail "no end marker after the %s blob" blob_key;
              (List.rev acc, Some bytes)
            end
            else body ((key, value) :: acc))
  in
  let fields, blob = body [] in
  if !pos < len then fail "bytes after the end marker";
  { what; fields; blob }

let fields r = r.fields
let blob r = r.blob
let find r k = List.assoc_opt k r.fields
let find_all r k = List.filter_map (fun (k', v) -> if k' = k then Some v else None) r.fields
let fail r msg = failwith (r.what ^ ": " ^ msg)

let get r k =
  match find r k with Some v -> v | None -> fail r ("missing key " ^ k)

let parse_value r k parse v =
  match parse v with Some x -> x | None -> fail r (Printf.sprintf "bad %s %S" k v)

let get_as r k parse = parse_value r k parse (get r k)
let find_as r k parse = Option.map (parse_value r k parse) (find r k)
let int r k = get_as r k int_of_string_opt
let float r k = get_as r k float_of_string
let bool r k = get_as r k bool_of_string_opt
