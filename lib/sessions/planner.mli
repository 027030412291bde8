(** Cost-based engine selection for phase-2 replay.

    The scan and indexed engines produce bit-identical reports but cross
    over in cost: indexed replay wins 5-6x on session-heavy workloads yet
    only breaks even when a long trace carries a handful of sessions (the
    EXPERIMENTS.md table), and a cached [.widx] shifts the crossover
    again by making the index free. This module prices the three options
    — scan, build-then-index, reuse-cached-index — from quantities that
    are known {e before} any replay work (trace length, discovered
    session count, domain count, cached-index availability), picks the
    cheapest, and logs the decision. [--engine scan|indexed] remains the
    override; the planner is what [--engine auto] (the default) runs.

    Correctness does not depend on the model: every branch funnels into
    {!Replay.replay_all}, whose engines are differentially tested, so a
    mispriced decision costs time, never accuracy. *)

type choice = Use_scan | Build_index | Reuse_index

(** Why the planner was consulted: a complete batch trace ([Full], the
    default), the sealed prefix of an in-progress streaming recording
    answered over an incrementally-maintained index ([Partial_index]),
    or a time-travel replay restarted from a machine checkpoint
    ([Checkpoint_restart]). The reason never changes the decision — it
    annotates the log line ([reason=...]) and bumps
    [planner.decision.partial_index] / [...checkpoint_restart] next to
    the choice counter, so streaming-mode decisions are observable. *)
type reason = Full | Partial_index | Checkpoint_restart

type estimate = {
  events : int;
  sessions : int;
  domains : int;
  cached_index : bool;
  reason : reason;
  scan_cost : float;  (** modeled cost of one scan pass, all sessions *)
  build_cost : float;  (** index build + indexed replay *)
  reuse_cost : float;  (** indexed replay off a cached index *)
  choice : choice;
}

val estimate :
  ?reason:reason ->
  events:int -> sessions:int -> domains:int -> cached_index:bool -> unit ->
  estimate
(** Pure — same inputs, same decision, so planned runs stay as
    reproducible as fixed-engine runs. [Reuse_index] is only ever chosen
    when [cached_index] is true. Costs are in arbitrary calibrated units;
    see the model comment in the implementation. *)

val choice_name : choice -> string
(** ["scan"], ["build"], or ["reuse"] — the token used in the log line
    and the [planner.decision.*] counter names. *)

val reason_name : reason -> string
(** ["full"], ["partial_index"], or ["checkpoint_restart"]. *)

val record_decision : estimate -> unit
(** Bump [planner.decision.<choice>] (and, for a non-[Full] reason,
    [planner.decision.<reason>]). {!replay} calls this itself; other
    surfaces that consult {!estimate} directly (the query front door)
    share the counters through it. *)

val engine_of_choice : choice -> Replay.engine

val log_line : estimate -> string
(** The one-line human rendering of an estimate, e.g.
    ["planner: build (events=... sessions=... ...)"] — what
    {!replay} feeds the [?log] callback. *)

(** {2 The index door}

    How every surface obtains a trace's write index: a {!source} says
    where an index may already live — an existence probe (priced into
    the estimate), a loader, and a store for freshly built indexes — and
    {!load_or_build} turns it into an index. {!replay} and
    [Ebp_query.Query.run] go through it, so the CLI, the experiment
    engine and the serve daemon share one [.widx] entry per trace. *)

type source = {
  cached : bool;
  load : unit -> Ebp_trace.Write_index.t option;
  store : Ebp_trace.Write_index.t -> unit;
}

val no_index_cache : source
(** Nothing cached, nothing stored: the planner without a cache. *)

val cache_index : dir:string -> key:string -> page_sizes:int list -> source
(** The {!Ebp_trace.Trace_cache} index entry of trace key [key] built
    with [page_sizes]. [cached] is probed when the source is made; a
    damaged entry loads as [None]; the store is best-effort. *)

val resident : Ebp_trace.Write_index.t -> source
(** An index already in memory (the serve daemon's store). *)

val load_or_build :
  ?pool:Ebp_util.Domain_pool.t ->
  page_sizes:int list ->
  source ->
  Ebp_trace.Trace.t ->
  Ebp_trace.Write_index.t
(** [source.load ()], or else a {!Ebp_trace.Write_index.build} (chunked
    across [pool]) handed to [source.store] and returned. *)

val replay :
  ?page_sizes:int list ->
  ?pool:Ebp_util.Domain_pool.t ->
  ?domains:int ->
  ?keep_hitless:bool ->
  ?index_source:source ->
  ?engine:Replay.engine ->
  ?reason:reason ->
  ?log:(string -> unit) ->
  Ebp_trace.Trace.t ->
  (Session.t * Counts.t) list
(** Discover sessions, {!estimate}, then replay with the chosen engine —
    the planner's counterpart of {!Replay.discover_and_replay}, with the
    same sharding ([?pool] / [?domains]) and [?keep_hitless] contract.
    A [Reuse_index] goes through {!load_or_build}, so a load that misses
    (entry vanished or quarantined between probe and load) degrades to a
    build, never an error; a [Build_index] builds and stores without a
    lookup. The decision is counted in
    [planner.decision.{scan,build,reuse}] and, when [?log] is given,
    reported through it; there is no default output, so batch report
    bytes are unchanged. [?engine] ([--engine scan|indexed]) skips the
    estimate, the counters and the log; a forced [Indexed] takes its
    index through {!load_or_build}. *)
