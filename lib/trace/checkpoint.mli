(** Machine checkpoints for time travel over recorded runs.

    A checkpoint chain is taken while a (streaming) recording runs:
    every entry captures the loader state above memory
    ({!Ebp_runtime.Loader.snapshot}), the recorder's bookkeeping
    ({!Recorder.snapshot}), and the memory pages dirtied {e since the
    previous entry} ({!Ebp_machine.Memory.take_dirty}). Restoring to
    trace timestamp [w] means: fresh deterministic [load ()], overlay
    the page deltas of every entry up to the nearest checkpoint strictly
    before [w], restore the loader/recorder snapshots, then {!seek}
    forward — re-executing only the tail instead of the whole prefix
    from step 0.

    Checkpoints are taken at instruction boundaries only (recorder hooks
    run mid-instruction, when the machine state is not consistent):
    {!run_with_checkpoints} drives the run in resumable fuel slices and
    samples at slice boundaries.

    Faults: [checkpoint.store] (see docs/ROBUSTNESS.md) makes {!take}
    skip the entry; the un-drained dirty set accumulates into the next
    successful checkpoint, so the chain stays correct and time travel
    merely re-executes from further back. *)

type t

val create : unit -> t

val track : Ebp_runtime.Loader.t -> unit
(** Turn on dirty-page tracking for the loader's memory. Call right
    after [load], before running, so the first checkpoint's delta covers
    everything written since the load image. *)

val take : t -> event:int -> nobjs:int -> Ebp_runtime.Loader.t -> Recorder.t -> unit
(** Append a checkpoint stamped with the recording's current (event,
    object) counts. Must be called between instructions. *)

val count : t -> int
val skipped : t -> int
(** Checkpoints dropped by [checkpoint.store] fault injection. *)

val events : t -> int list
(** Ascending trace timestamps of the chain's entries. *)

(** A restored execution: the rebuilt loader, the counting sink's
    counters (pre-loaded with the checkpoint's event/object counts), and
    the re-attached recorder. *)
type restored = {
  rs_loader : Ebp_runtime.Loader.t;
  rs_counters : Recorder.counters;
  rs_recorder : Recorder.t;
}

val restore :
  t -> event:int -> load:(unit -> Ebp_runtime.Loader.t) -> restored option
(** Rebuild the machine at the nearest checkpoint strictly before trace
    timestamp [event] (strict, so the follow-up {!seek} always stops at
    the same instruction boundary a step-0 seek would — an entry stamped
    exactly [event] sits at a slice boundary that may be {e past} that
    point). [load] must deterministically reproduce the original load
    (same program, same seed). [None] when no checkpoint strictly
    precedes [event] — fall back to a step-0 replay. *)

val seek :
  ?limit:int ->
  Ebp_runtime.Loader.t -> Recorder.counters -> event:int ->
  Ebp_machine.Machine.stop_reason option
(** Single-step forward until the event counter reaches [event] (or the
    machine stops, or [limit] instructions ran). Stops at the first
    instruction boundary where [c_events >= event]. *)

val state_digest : Ebp_runtime.Loader.t -> Recorder.counters -> string
(** Hex fingerprint of the full execution state — registers, counters,
    function stack, allocator live set, output, non-zero memory pages,
    and the event/object counts. Equal digests between a
    checkpoint-restored seek and a step-0 replay are the time-travel
    equivalence oracle used by tests and bench. *)

val run_with_checkpoints :
  ?slice:int ->
  ?fuel:int ->
  every:int ->
  events:(unit -> int) ->
  nobjs:(unit -> int) ->
  t -> Ebp_runtime.Loader.t -> Recorder.t ->
  Ebp_runtime.Loader.run_result
(** Run the loader to completion (or total [fuel]), taking a checkpoint
    whenever the recording has grown by at least [every] events since
    the last one, sampled every [slice] instructions (default 256Ki).
    [events]/[nobjs] read the attached sink's counts (e.g.
    {!Stream.Writer.events}/[object_count]). The returned result is
    identical to a single [Loader.run ?fuel] of the same total. *)

val codec_version : string
(** Serialization format tag — part of the {!Trace_cache} checkpoint
    key, so a format change orphans rather than misparses old chains. *)

val encode : t -> string
(** Serialize the chain (plain-data snapshots; no closures). Seal with
    {!Trace_cache} for storage — see [store_checkpoints]. *)

val decode : ?len:int -> string -> (t, string) result
(** Inverse of {!encode}, over the first [len] bytes of the string
    (default: all of it), which the chain must fill exactly.
    @raise Invalid_argument if [len] is outside the string. *)
