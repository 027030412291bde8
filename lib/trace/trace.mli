(** Program event traces (phase 1 of the paper's experiment, Figure 1).

    A trace is the session-independent record of one program run:

    - [Install (obj, range)] — a monitorable object came to life at [range];
    - [Remove (obj, range)] — it died (or moved, for realloc);
    - [Write (range, pc)] — a user-code store wrote [range].

    Install/Remove events exist for {e every} object any monitor session
    might care about; the phase-2 replay filters them per session. Writes
    from system calls, the allocator, and implicit frame bookkeeping are
    absent by construction (§6).

    Traces can hold millions of events, so they are stored packed (four
    integers per event, object descriptors interned in a side table); use
    {!iter_raw} for throughput-critical consumers. One sealed codec,
    EBPT4 ({!encode}, {!decode}, {!map_file}), serves both a cache entry
    and an [ebp trace -o] file; the streaming recorder writes EBPB1
    ({!Stream}) instead. *)

type event =
  | Install of { obj : Object_desc.t; range : Ebp_util.Interval.t }
  | Remove of { obj : Object_desc.t; range : Ebp_util.Interval.t }
  | Write of { range : Ebp_util.Interval.t; pc : int }

type t

(** Growable trace under construction. *)
module Builder : sig
  type trace := t
  type t

  val create : ?hint:int -> unit -> t
  (** [hint] is the expected event count (default 1024): a builder sized
      to its workload never reallocates, and {!finish} can hand over its
      buffer without copying. A wrong hint only costs the usual doubling
      or one final copy. *)

  val add_install : t -> Object_desc.t -> Ebp_util.Interval.t -> unit
  val add_remove : t -> Object_desc.t -> Ebp_util.Interval.t -> unit
  val add_write : t -> Ebp_util.Interval.t -> pc:int -> unit

  val register : t -> Object_desc.t -> int
  (** Assign the next object id to [obj] without an intern lookup, for
      callers that know the descriptor is fresh (the recorder mints one
      per activation). Ids from [register] and from the interning
      {!add_install}/{!add_remove} share one sequence, so the two styles
      may be mixed — but feeding the same descriptor to both creates two
      ids for it. *)

  val add_install_id : t -> int -> lo:int -> hi:int -> unit
  val add_remove_id : t -> int -> lo:int -> hi:int -> unit
  (** Allocation-free install/remove of a registered object over
      [[lo, hi]]. Requires [lo <= hi] and an id from {!register} (or the
      interning adders). *)

  val add_write_raw : t -> lo:int -> hi:int -> pc:int -> unit
  (** Allocation-free equivalent of {!add_write} for the phase-1 hot
      path: records the write [[lo, hi]] without going through an
      {!Ebp_util.Interval.t}. Requires [lo <= hi]. *)

  val length : t -> int

  val object_count : t -> int
  (** Object ids assigned so far (by {!register} or the interning
      adders). *)

  val finish : t -> trace
  (** Freeze the builder into a trace. When the buffer is exactly full
      (precise [hint]), ownership transfers without a copy — do not add
      events to a finished builder. *)
end

val length : t -> int
val get : t -> int -> event
val iter : t -> (event -> unit) -> unit

val get_raw :
  t -> int -> (tag:int -> obj:int -> lo:int -> hi:int -> pc:int -> 'a) -> 'a
(** Positional {!iter_raw}: decode the single event at an index (same
    field conventions) and pass it to the continuation. The random-access
    counterpart consumers like the query engine use to fetch attributes
    of events found through the {!Write_index} posting lists. Raises
    [Invalid_argument] out of range. *)

(** Raw iteration: [tag] 0 = install, 1 = remove, 2 = write; [obj] is an
    object id valid for {!object_of_id}, or [-1] for writes; the write range
    is [[lo, hi]]; [pc] is [-1] for install/remove. *)
val iter_raw : t -> (tag:int -> obj:int -> lo:int -> hi:int -> pc:int -> unit) -> unit

val iter_raw_range :
  t -> start:int -> stop:int ->
  (tag:int -> obj:int -> lo:int -> hi:int -> pc:int -> unit) -> unit
(** {!iter_raw} over events [start..stop-1]. Raises [Invalid_argument] on
    a range outside [0..length t]. Parallel consumers (the chunked index
    build) split a trace with this. *)

val iter_raw_skipping :
  t ->
  skip:(min_lo:int -> max_hi:int -> bool) ->
  on_skip:(writes:int -> unit) ->
  (tag:int -> obj:int -> lo:int -> hi:int -> pc:int -> unit) -> unit
(** {!iter_raw}, except that on a mapped trace (see {!map_file}) a
    block of events containing only writes may be skipped wholesale:
    when its summary shows no install/remove events and
    [skip ~min_lo ~max_hi] returns [true] for the bounds of its write
    ranges, [on_skip ~writes] is called with the block's write count
    instead of visiting the events. Consumers that only need write
    {e counts} from regions provably outside every monitorable range
    (the scan engine) go several times faster on sparse traces. On heap
    traces this is exactly [iter_raw]. *)

val install_bounds : t -> (int * int) option
(** [Some (lo, hi)] covering every install/remove range in the trace —
    the address space outside it can never produce a session hit or page
    touch. Available only on mapped traces (the EBPT4 header carries it);
    [None] on heap traces or when the trace installs nothing. *)

val is_mapped : t -> bool
(** [true] when the trace's columns live in an mmap'd file rather than on
    the OCaml heap. Mapped traces are immutable, safe to share read-only
    across domains, and remain valid after the backing file is unlinked
    (the mapping holds the inode); the mapping is released when the trace
    is garbage collected. *)

val object_count : t -> int
val object_of_id : t -> int -> Object_desc.t
val objects : t -> Object_desc.t array
(** All interned descriptors, indexed by object id. *)

(** Summary counts. *)
type stats = {
  events : int;
  installs : int;
  removes : int;
  writes : int;
  distinct_objects : int;
  write_bytes : int;  (** total bytes written *)
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

(** {2 Serialization}

    One codec, EBPT4: the cache entry, the [ebp trace -o] file and a
    [--from-trace] input are the same image. It stores the four event
    columns (w0, lo, hi - lo, pc) as frame-of-reference byte-width
    columns ({!Byte_column}): each keeps its minimum and the fewest
    bytes, 1 to 8, that hold its range, so a recorded trace takes about
    10 bytes per event where 8-byte words took 32. A warm load is a
    single [mmap]: no per-event decode, no heap allocation proportional
    to the trace, one physical copy shared by every domain and process
    that maps the file; a field read is one unaligned 8-byte load, a
    mask and the base. Files are self-sealed ("EBPZ" + CRC-32 trailer)
    and carry per-block min/max summaries that {!iter_raw_skipping}
    turns into block skipping. The full layout and the mmap
    lifetime/safety rules are documented in [docs/PERFORMANCE.md] and
    [docs/ROBUSTNESS.md]. *)

val to_text : t -> string
(** One event per line: ["I <obj> <lo> <hi>"], ["R <obj> <lo> <hi>"],
    ["W <lo> <hi> <pc>"] — the [ebp trace --text] printer. *)

val codec_version : string
(** Magic/version tag of the codec ("EBPT4"); {!Trace_cache} hashes it
    into every key, so bumping it orphans old cache entries instead of
    misreading them. *)

val encode : ?meta:string -> t -> string
(** Serialize to a complete, self-sealed EBPT4 file image (header,
    [meta] (default empty), object table, block summaries, columns, pad,
    CRC trailer), built in one exact-size allocation. Deterministic:
    equal traces encode to equal bytes. *)

val decode : string -> (t * string, string) result
(** Fully-checked inverse of {!encode}: verifies the CRC, every header
    field (column widths included) against the file length, object
    descriptors, event tags and ids, and that the block summaries match
    the events. Returns a heap trace plus the embedded [meta]. This is
    the verification path ([ebp cache verify], [--from-trace], the
    fuzzer's trace-codec oracle). *)

val map_file :
  ?verify:bool -> ?mangle:(string -> string) -> string ->
  (t * string, string) result
(** Map the EBPT4 file at [path] and return a trace reading its columns
    in place. Validates the header (column widths 1 to 8), object table,
    exact file length (the pad included), trailer magic, and the whole
    w0 column (tags/object ids) — but not the payload CRC, whose cost
    would rival the decode being avoided; run [ebp cache verify] (or
    pass [~verify:true], which reads the file and loads it through
    {!decode}, passing the bytes read through [mangle] first — the
    cache's read fault point) for full integrity checking. Any
    validation failure or I/O error is [Error]. Under fault injection
    the [trace.codec.map] point (and [mangle]) may raise
    {!Ebp_util.Fault.Injected} — a transient miss, distinct from a bad
    file. *)

val header_events : string -> int option
(** The event count in the header of an EBPT4 image, given at least its
    first 16 bytes; [None] when they do not start one. Nothing else is
    checked. *)
