(** The one text record format behind every file and message the tools
    persist or exchange: the flow journal's manifest and checkpoints, the
    explore store's manifest and point files, serve session manifests, and
    serve protocol requests and responses.

    {v
    record ::= HEADER NL field* blob? "end" NL?
    field  ::= KEY " " VALUE NL
    blob   ::= "graph " NBYTES " " CHECKSUM NL RAWBYTES NL
    v}

    [HEADER] is ["<format> <version>"].  A [KEY] is a nonempty token
    without spaces; its [VALUE] is the rest of the line (spaces allowed,
    possibly empty).  Keys may repeat and their order is kept.  The blob
    carries raw bytes (an AIGER circuit) framed by their length and
    {!checksum}, so a torn record is always told apart from a complete one.
    Nothing may follow [end].

    Decoding allocates nothing beyond the input's own size and reports
    every violation as [Failure] (never [Invalid_argument] or
    [Not_found]), with a message prefixed by the record's name. *)

val float_to_string : float -> string
(** Hex ([%h]), so decoding is bit-exact; infinities are [inf]/[-inf]. *)

val float_of_string : string -> float option
(** Inverse of {!float_to_string}. *)

val checksum : string -> int
(** 31-bit rolling checksum: cheap, and guards against torn writes and
    frames, not adversarial collisions. *)

val encode : header:string -> ?blob:string -> (string * string) list -> string
(** Serialize [header], the fields in order, the optional blob and [end].
    Raises [Invalid_argument] on a key that is empty, contains a space or
    newline, or is [graph], and on a value containing a newline. *)

type t
(** A decoded record. *)

val decode : what:string -> header:string -> string -> t
(** Parse a record whose first line must be [header].  The same format at
    an older version fails with a message naming that version and asking
    for a re-run: old files are refused, never converted.  [what] names the
    record in every error message. *)

val outdated : header:string -> string -> bool
(** Whether the text's first line names an older version of [header]'s
    format, i.e. whether {!decode} refuses it for its version alone. *)

val fields : t -> (string * string) list
val blob : t -> string option

val find_all : t -> string -> string list
(** Every value of a repeated key, in order. *)

val fail : t -> string -> 'a
(** Raise [Failure] with the message prefixed by the record's name. *)

val get : t -> string -> string
(** First value of the key; a missing key fails naming record and key. *)

val get_as : t -> string -> (string -> 'a option) -> 'a
(** {!get} through a parser; a value it rejects fails naming record, key
    and value. *)

val find_as : t -> string -> (string -> 'a option) -> 'a option
(** {!get_as} for an optional key. *)

val int : t -> string -> int
val float : t -> string -> float
val bool : t -> string -> bool
