(** The five benchmark programs (paper §6), as MiniC sources.

    Each stands in for one of the paper's C programs, engineered to
    reproduce that program's memory-behaviour shape rather than its
    function (see DESIGN.md §2):

    - [compiler] ~ GCC: scanning + recursive tree building, heap-heavy with
      many globals;
    - [typeset] ~ CommonTeX: dynamic-programming line breaking over static
      arrays — {e no heap objects}, so no heap sessions exist (Table 1);
    - [circuit] ~ Spice: iterative Gauss–Seidel nodal analysis with
      heap-allocated matrices;
    - [lattice] ~ QCD: stencil sweeps over global lattices with tiny helper
      functions — the most writes and monitor installs, no heap;
    - [puzzle] ~ BPS: best-first 8-puzzle search allocating thousands of
      small heap nodes — dominating the OneHeap session count.

    [expected_output] lets tests pin each workload's observable behaviour:
    the programs self-check (e.g. print a checksum) so a compiler or
    machine regression is caught by the workload suite itself. *)

type t = {
  name : string;
  description : string;
  paper_analogue : string;  (** the paper program this one stands in for *)
  source : string;  (** MiniC translation unit *)
  seed : int;  (** PRNG seed for the [rand] builtin *)
  expected_output : string option;
      (** full expected stdout, when deterministic (always, currently) *)
  event_hint : int option;
      (** approximate phase-1 trace event count, used to pre-size the
          recorder's trace builder so recording neither reallocates nor
          copies on finish; purely a performance hint *)
}

val all : t list
(** In the paper's Table 1 order: compiler, typeset, circuit, lattice,
    puzzle. *)

val by_name : string -> t option

val compiler : t
val typeset : t
val circuit : t
val lattice : t
val puzzle : t

(** A compiled-and-traced workload, ready for phase 2. *)
type run = {
  workload : t;
  compiled : Ebp_lang.Compiler.output;
  result : Ebp_runtime.Loader.run_result option;
      (** the machine run that produced the trace; [None] when the trace
          came from the on-disk cache and no machine execution happened *)
  trace : Ebp_trace.Trace.t;
  base_ms : float;  (** base execution time at the simulated clock *)
}

val record : ?fuel:int -> t -> (run, string) result
(** Compile, load, run under the trace recorder. Fails on compile errors,
    machine errors, runtime errors, or an output mismatch. The [result]
    field of a successful recording is always [Some _]. *)

val cache_key : ?fuel:int -> t -> string
(** The {!Ebp_trace.Trace_cache} key of this workload's phase-1 trace:
    name, source digest, seed, and fuel, hashed per the cache's key
    scheme. Deterministic recording makes these inputs a complete
    description of the trace. *)

(** {2 The trace door}

    Every surface that caches a trace — [ebp experiment] (through
    {!record_cached}), [ebp trace|query --cached] and the serve daemon —
    goes through {!cached_trace}, so one key is one entry that all of
    them write alike and can use. *)

val meta_of_base_ms : float -> string
(** An entry's metadata: its base execution time (ms) as a [%h] hex
    float, which reads back exactly. [ebp trace -o] writes it too. *)

type 'a origin =
  | Hit  (** loaded from the cache; nothing ran *)
  | Recorded of 'a * (unit, string) result
      (** [record] ran and returned ['a]; then the store had this
          outcome *)

val cached_trace :
  dir:string ->
  key:string ->
  record:(unit -> (Ebp_trace.Trace.t * float * 'a, 'e) result) ->
  (Ebp_trace.Trace.t * float * 'a origin, 'e) result
(** The trace under [key] in [dir] and its base time, when the entry is
    intact and its metadata reads back. Otherwise [record ()] (its error
    returned as is), whose trace is then stored — best-effort — with
    {!meta_of_base_ms} of its base time, overwriting an entry whose
    metadata did not parse. *)

val record_cached : ?fuel:int -> cache_dir:string -> t -> (run, string) result
(** Like {!record}, but through {!cached_trace} under [cache_dir] with
    key {!cache_key}. On a hit the machine never runs: the trace and base
    execution time are loaded from disk, the source is compiled again
    (for the [compiled] field) and [result] is [None]. On a miss it
    records normally and stores the trace (best-effort). *)
