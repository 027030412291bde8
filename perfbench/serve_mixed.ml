(* Workload "serve-mixed": the service layers, which "paper" bypasses. A
   child `ebp serve` daemon with its default configuration (1 domain, LRU
   8, queue 64) runs on a private socket and cache, warmed during set-up
   with nine programs: the five paper programs and four seeded synthetic
   ones. Nine is more than the LRU holds, so the disk tier is exercised.
   Two tenants drive it:
   - "analyst": seeded heavy requests (sessions, group-by, distinct, live()
     joins) cycling through all nine programs;
   - "interactive": Ping and seeded point queries on one resident program.
   The measured run sends each tenant's requests alone, closed loop, and
   times each by the daemon's processor time. The traced run also drives
   both at once, the interactive tenant open loop at a fixed rate and
   timed from when each request was due, for the wall-clock cost of the
   daemon running one request at a time. Every report is checked byte for
   byte against an in-process render of the same request. *)

open Common
module P = Ebp_serve.Protocol
module Client = Ebp_serve.Client
module Core = Ebp_serve.Server.Core
module Trace_store = Ebp_serve.Trace_store
module Trace_cache = Ebp_trace.Trace_cache
module Trace = Ebp_trace.Trace
module Write_index = Ebp_trace.Write_index
module Query = Ebp_query.Query
module Planner = Ebp_sessions.Planner
module Replay = Ebp_sessions.Replay
module Counts = Ebp_sessions.Counts
module Metrics = Ebp_obs.Metrics

(* The interactive tenant's schedule: [rate_per_s] requests a second,
   pipelined on one connection so the rate is not capped by waiting for
   each reply, in a one-second cycle of one Ping (a front end's liveness
   check) and [rate_per_s - 1] distinct seeded point queries. The rate
   follows from the analyst's measured warm latencies on a 2-core x86-64
   host: about 100 ms for its shortest kind (live() joins) and 350-450 ms
   for sessions on puzzle and lattice, group-by and distinct, rarely over
   1 s. At 20/s about two interactive requests fall due during even the
   shortest analyst request, so every one has interactive traffic waiting
   behind it, while a 1 s request queues about 20, under a third of the
   daemon's queue limit of 64. As each point query recurs once a second,
   identical queries meet in the queue, and coalesce, only behind a
   request that holds the daemon for more than a second. *)
let rate_per_s = 20

(* Synthetic programs at about half the paper workload's mid-size one. *)
let knobs =
  { Ebp_core.Fuzz.gen_events = 10; gen_heap_churn = 20; gen_session_density = 12 }

type prog = { name : string; source : string; seed : int; live_spec : string }

let programs ~seed =
  let paper =
    List.map
      (fun (w : Ebp_workloads.Workload.t) ->
        let spec =
          match w.name with
          | "compiler" -> "global:node_count"
          | "typeset" -> "global:total_lines"
          | "circuit" -> "global:steps_done"
          | "lattice" -> "global:sweep_count"
          | "puzzle" -> "global:expansions"
          | n -> die "no live() spec for %s" n
        in
        { name = w.name; source = w.source; seed = w.seed; live_spec = spec })
      Ebp_workloads.Workload.all
  in
  let synth =
    List.init 4 (fun i ->
        let name = Printf.sprintf "synthetic%d" i in
        let w = synthetic ~name ~knobs ~seed:((seed * 4) + i) in
        { name; source = w.source; seed = w.seed; live_spec = "global:q0" })
  in
  paper @ synth

(* The program the interactive tenant queries; its traffic keeps it
   resident while the analyst cycles the other eight through seven slots. *)
let resident = "circuit"

(* One planned request, the reply it must get, and its kind for the
   per-kind figures. *)
type planned = { req : P.request; want : P.response; kind : string }

let query_req p expr =
  P.Query
    { name = p.name; source = p.source; seed = p.seed; expr; engine = "auto";
      format = "table" }

let sessions_req p =
  P.Sessions_query
    { name = p.name; source = p.source; seed = p.seed; engine = "auto";
      keep_hitless = false }

(* One request per program, in a fixed order; the four heavy kinds
   rotate across the programs, so a 9-request pass asks for each kind
   twice or three times, and a pass is short enough (4-6 s) for a run to
   hold several. The seed picks the programs' contents and the K of each
   request but not the order, so every seed asks for the same mix of work
   in the same sequence. Nine programs cycling in a fixed order through
   the LRU's eight slots make every request's program one the LRU has
   just evicted, unless another tenant keeps a program resident. *)
let kinds = 4
let rounds = 1

let analyst_plan rng progs =
  List.concat
    (List.init rounds (fun round ->
         List.mapi
           (fun i p ->
             let k () = 3 + Random.State.int rng 8 in
             match (i + round) mod kinds with
             | 0 -> (sessions_req p, "sessions")
             | 1 ->
                 (query_req p (Printf.sprintf "count group by pc top %d" (k ())), "group-by")
             | 2 -> (query_req p "count distinct word", "distinct")
             | _ ->
                 ( query_req p
                     (Printf.sprintf "count where live(%s) group by pc top %d"
                        p.live_spec (k ())),
                   "live-join" ))
           progs))

(* --- in-process reference renders, the batch CLI's code paths --- *)

type loaded = { trace : Trace.t; index : Write_index.t }

let load ~dir p =
  let key = Trace_cache.make_key ~name:p.name ~source:p.source ~seed:p.seed () in
  match
    ( Trace_cache.lookup ~dir ~key,
      Trace_cache.lookup_index ~dir ~key ~page_sizes:Replay.default_page_sizes )
  with
  | Some (trace, _), Some index -> { trace; index }
  | _ -> die "%s: not in the daemon's cache after warm-up" p.name

let sessions_report l =
  Planner.replay ~keep_hitless:false
    ~index_source:
      { Planner.cached = true; load = (fun () -> Some l.index); store = ignore }
    l.trace
  |> Ebp_serve.Render.sessions_report

let query_report l expr =
  match Query.parse expr with
  | Error _ -> die "query %S does not parse" expr
  | Ok q ->
      let exec = Query.run ~index:l.index l.trace q in
      Query.render ~format:Query.Table l.trace q exec.raw

let expected loaded = function
  | P.Ping -> P.Pong
  | P.Sessions_query { name; _ } -> P.Report (sessions_report (List.assoc name loaded))
  | P.Query { name; expr; _ } -> P.Report (query_report (List.assoc name loaded) expr)
  | _ -> die "unexpected request kind in the plan"

(* --- the daemon --- *)

type daemon = { pid : int; socket : string }

let spawn ~ebp ~dir =
  let socket = Filename.concat dir "s.sock" and cache = Filename.concat dir "cache" in
  let log = Unix.openfile (Filename.concat dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process ebp
      [| ebp; "serve"; "--socket"; socket; "--cache-dir"; cache |]
      null log log
  in
  Unix.close log;
  Unix.close null;
  let stopped = ref false in
  at_exit (fun () ->
      if not !stopped then begin
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end);
  ( { pid; socket },
    fun () ->
      (match
         Client.with_client ~socket_path:socket (fun c -> Client.request c P.Shutdown)
       with
      | Ok P.Shutdown_ack -> ()
      | _ -> (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()));
      ignore (Unix.waitpid [] pid);
      stopped := true )

let connect d tenant =
  match Client.connect ~tenant ~retries:400 ~socket_path:d.socket () with
  | Ok c -> c
  | Error msg -> die "connect to the daemon: %s" msg

(* --- the two tenants --- *)

(* [why] says what was wrong with a failed request. *)
type outcome_ = { lat_ms : float; why : string option; kind : string }

let check got want =
  if P.equal_frame (P.Response got) (P.Response want) then None
  else
    Some
      (Format.asprintf "got %a, want %a" P.pp_frame (P.Response got) P.pp_frame
         (P.Response want))

let send c req want =
  match Client.request c req with
  | Ok resp -> check resp want
  | Error e -> Some e

(* Open loop over a pipelined connection: request i is due at
   t0 + i / rate and is sent then, whether or not earlier replies are in;
   its latency counts from its due time. The daemon answers Ping as soon
   as it reads it but queues queries, so replies can overtake each other
   across the two kinds. Returns (outcomes, generator lateness per
   request). *)
let interactive socket plan ~t0 ~deadline =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let write s =
    let len = String.length s in
    let pos = ref 0 in
    while !pos < len do
      pos := !pos + Unix.write_substring fd s !pos (len - !pos)
    done
  in
  let inbuf = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let rec read_frame () =
    let s = Buffer.contents inbuf in
    match P.decode ~buf:s ~pos:0 ~len:(String.length s) with
    | `Frame (P.Response r, used) ->
        Buffer.clear inbuf;
        Buffer.add_string inbuf (String.sub s used (String.length s - used));
        Some r
    | `Frame (P.Request _, _) | `Corrupt _ -> None
    | `Need_more -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_frame ()
        | 0 | (exception Unix.Unix_error _) -> None
        | n ->
            Buffer.add_subbytes inbuf chunk 0 n;
            read_frame ())
  in
  (* Whether a reply is waiting, giving up after a short wait so the
     receiver can notice that the sender is done. *)
  let readable () =
    Buffer.length inbuf > 0
    ||
    match Unix.select [ fd ] [] [] 0.1 with
    | [], _, _ -> false
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
  in
  write (P.encode_request (P.Hello { tenant = "interactive"; max_version = 1 }));
  (match read_frame () with
  | Some (P.Hello_ok _) -> ()
  | _ -> die "interactive connection: no Hello_ok");
  let lock = Mutex.create () in
  let pings = Queue.create () and queries = ref [] in
  let sent = ref 0 and finished = ref false in
  let sender () =
    let rec go i lags =
      let due = t0 +. (float_of_int i /. float_of_int rate_per_s) in
      if due >= deadline then List.rev lags
      else begin
        let n = now () in
        if n < due then Thread.delay (due -. n);
        let it = plan.(i mod Array.length plan) in
        Mutex.protect lock (fun () ->
            if it.req = P.Ping then Queue.push (due, it) pings
            else queries := !queries @ [ (due, it) ];
            incr sent);
        let lag = (now () -. due) *. 1000.0 in
        write (P.encode_request it.req);
        go (i + 1) (lag :: lags)
      end
    in
    Fun.protect
      ~finally:(fun () -> Mutex.protect lock (fun () -> finished := true))
      (fun () -> go 0 [])
  in
  let lags = ref [] in
  let ts = Thread.create (fun () -> lags := sender ()) () in
  (* The daemon coalesces identical queued queries and answers them
     together, ahead of older distinct ones, so a query reply goes to the
     oldest pending query expecting exactly it (or, if none does, to the
     oldest pending query, as a failure). *)
  let take resp =
    if resp = P.Pong then Queue.pop pings
    else
      let pending = !queries in
      let hit =
        match List.find_opt (fun (_, it) -> it.want = resp) pending with
        | Some x -> x
        | None -> List.hd pending
      in
      queries := List.filter (fun x -> x != hit) pending;
      hit
  in
  let rec receive got acc =
    let all_in = Mutex.protect lock (fun () -> !finished && got >= !sent) in
    if all_in then acc
    else if not (readable ()) then receive got acc
    else
      match read_frame () with
      | None -> acc
      | Some resp ->
          let t = now () in
          let due, it = Mutex.protect lock (fun () -> take resp) in
          receive (got + 1)
            ({ lat_ms = (t -. due) *. 1000.0; why = check resp it.want; kind = it.kind }
            :: acc)
  in
  let outcomes = receive 0 [] in
  Thread.join ts;
  Unix.close fd;
  (* Requests never answered count as failed. *)
  let missing = !sent - List.length outcomes in
  ( List.rev outcomes
    @ List.init missing (fun _ ->
          { lat_ms = 0.0; why = Some "no reply"; kind = "none" }),
    !lags )

(* The analyst's pause after each reply. It lets the daemon read and
   answer the interactive requests queued behind one analyst request
   before the next one arrives; without it, whether the next was read in
   the same select round as those was a race, and the daemon's round-robin
   then put all but one of them behind it too. *)
let think_s = 0.02

(* Closed loop: the next request leaves [think_s] after the previous reply
   is in. *)
let analyst c plan ~deadline =
  let rec go i acc =
    if now () >= deadline then List.rev acc
    else begin
      let it = plan.(i mod Array.length plan) in
      let why, lat_ms = timed (fun () -> send c it.req it.want) in
      Thread.delay think_s;
      go (i + 1) ({ lat_ms; why; kind = it.kind } :: acc)
    end
  in
  go 0 []

type load_result = {
  inter : outcome_ list;
  lags : float list;
  heavy : outcome_ list;
  elapsed : float;
}

let drive d ~inter_plan ~heavy_plan ~seconds =
  let ca = connect d "analyst" in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let ir = ref ([], []) and ar = ref [] in
  let ti = Thread.create (fun () -> ir := interactive d.socket inter_plan ~t0 ~deadline) () in
  let ta = Thread.create (fun () -> ar := analyst ca heavy_plan ~deadline) () in
  Thread.join ti;
  Thread.join ta;
  let elapsed = now () -. t0 in
  Client.close ca;
  { inter = fst !ir; lags = snd !ir; heavy = !ar; elapsed }

(* --- the end-to-end phases: each tenant alone --- *)

(* One request sent alone: its kind, what was wrong with the reply, and
   its wall time and the daemon's processor time from the send to the
   reply. *)
type solo = { s_kind : string; s_why : string option; s_cost : sample }

let solo d c it =
  let c0 = proc_cpu_ms d.pid in
  let why, wall_ms = timed (fun () -> send c it.req it.want) in
  { s_kind = it.kind; s_why = why; s_cost = { wall_ms; cpu_ms = proc_cpu_ms d.pid -. c0 } }

(* The analyst alone, closed loop: each request of its plan twice in a
   row, first on a program the LRU has evicted (cold: reloaded from the
   disk tier, then run) and then again on the now resident program (warm:
   run only; the daemon keeps no replies). Whole passes over the plan while
   the next pass is expected to end by [deadline] (at least one), so that
   whatever the host's speed a run's figures are means over whole passes
   of the same requests. Returns the cold and the warm sends. *)
let analyst_alone ~mt d plan ~deadline =
  let c = connect d "analyst" in
  let t0 = now () in
  let rec passes n cold warm =
    let cold, warm =
      Array.fold_left
        (fun (cold, warm) it ->
          let send cls =
            start_sample mt;
            let o = solo d c it in
            record_sample mt cls o.s_cost.cpu_ms;
            o
          in
          let first = send "cold" in
          (first :: cold, send "warm" :: warm))
        (cold, warm) plan
    in
    let per = (now () -. t0) /. float_of_int n in
    if now () +. per <= deadline then passes (n + 1) cold warm
    else (List.rev cold, List.rev warm)
  in
  let r = passes 1 [] [] in
  Client.close c;
  r

(* --- the traced run's in-process layer probes --- *)

let counter snap name =
  match List.find_opt (fun (n, _, _) -> n = name) snap.Metrics.counters with
  | Some (_, v, _) -> float_of_int v
  | None -> 0.0

(* The analyst plan's first round, each heavy request followed by
   one interactive point query, through each layer's public calls: the
   protocol codec, the resident store, the query engine, session
   discovery and replay, and Server.Core's admission and dispatch. *)
let probe_layers ~dir ~heavy_plan ~points =
  Metrics.set_enabled true;
  Metrics.reset ();
  let frames = ref [] and waits = ref [] and execs = ref [] in
  let fetches = ref [] and parses = ref [] and runs = ref [] in
  let discovers = ref [] and replays = ref [] in
  let frame f =
    let (), ms =
      timed (fun () ->
          let s = P.encode f in
          match P.decode ~buf:s ~pos:0 ~len:(String.length s) with
          | `Frame _ -> ()
          | `Need_more | `Corrupt _ -> die "frame does not round-trip")
    in
    frames := (ms *. 1000.0) :: !frames
  in
  let store = Trace_store.create ~capacity:8 ~cache_dir:dir () in
  let core = Core.create { Core.default_config with cache_dir = Some dir } in
  let direct req =
    frame (P.Request req);
    match req with
    | P.Query { name; source; seed; expr; _ } ->
        let trace, index =
          match timed (fun () -> Trace_store.fetch store ~name ~source ~seed) with
          | Ok ti, ms -> fetches := ms :: !fetches; ti
          | Error msg, _ -> die "fetch %s: %s" name msg
        in
        let q =
          match timed (fun () -> Query.parse expr) with
          | Ok q, ms -> parses := ms :: !parses; q
          | Error _, _ -> die "query %S does not parse" expr
        in
        let exec, ms = timed (fun () -> Query.run ~index trace q) in
        runs := ms :: !runs;
        frame (P.Response (P.Report (Query.render ~format:Query.Table trace q exec.raw)))
    | P.Sessions_query { name; source; seed; _ } ->
        let trace, index =
          match timed (fun () -> Trace_store.fetch store ~name ~source ~seed) with
          | Ok ti, ms -> fetches := ms :: !fetches; ti
          | Error msg, _ -> die "fetch %s: %s" name msg
        in
        let sessions, ms = timed (fun () -> Ebp_sessions.Discovery.discover trace) in
        discovers := ms :: !discovers;
        let est =
          Planner.estimate ~events:(Trace.length trace)
            ~sessions:(List.length sessions) ~domains:1 ~cached_index:true ()
        in
        let engine = Planner.engine_of_choice est.choice in
        let results, ms =
          timed (fun () ->
              Replay.replay_all ~engine ~index trace sessions
              |> List.filter (fun (_, c) -> c.Counts.hits > 0))
        in
        replays := ms :: !replays;
        frame (P.Response (P.Report (Ebp_serve.Render.sessions_report results)))
    | _ -> ()
  in
  let through_core reqs =
    let submitted = now () in
    List.iter
      (fun (tenant, req) ->
        Core.submit core ~tenant
          ~reply:(fun _ -> waits := ((now () -. submitted) *. 1000.0) :: !waits)
          req)
      reqs;
    let rec go () =
      let more, ms = timed (fun () -> Core.dispatch_one core) in
      if more then begin
        execs := ms :: !execs;
        go ()
      end
    in
    go ()
  in
  Array.iteri
    (fun i { req; _ } ->
      if i < Array.length heavy_plan / rounds then begin
        let point = points.(i mod Array.length points).req in
        direct req;
        direct point;
        through_core [ ("analyst", req); ("interactive", point) ]
      end)
    heavy_plan;
  Core.shutdown core;
  let snap = Metrics.snapshot () in
  Metrics.set_enabled false;
  (* The store counters add up the probe's store and the core's, which see
     the same sequence of fetches. *)
  let hits = counter snap "serve.store.warm_hits" in
  let fetch_total =
    hits +. counter snap "serve.store.disk_hits" +. counter snap "serve.store.cold_records"
  in
  let queries = counter snap "serve.queries" in
  [ m "serve.queue_wait_ms" "ms" (mean !waits);
    m "serve.execute_ms" "ms" (mean !execs);
    m "serve.coalesced_ratio" "ratio"
      (if queries > 0.0 then counter snap "serve.coalesced" /. queries else 0.0);
    m "trace_store.fetch_ms" "ms" (mean !fetches);
    m "trace_store.hit_ratio" "ratio" (if fetch_total > 0.0 then hits /. fetch_total else 0.0);
    m "protocol.frame_us" "us" (mean !frames);
    m "query.parse_ms" "ms" (mean !parses);
    m "query.run_ms" "ms" (mean !runs);
    m "sessions.discover_ms" "ms" (mean !discovers);
    m "sessions.replay_ms" "ms" (mean !replays) ]

(* --- the workload --- *)

(* How often the daemon's set-up is repeated, each time a fresh daemon on
   a fresh cache, for the median reported as setup_s. *)
let daemon_setups = 2

(* Set-up: generate the programs, start a daemon on a fresh cache in
   [dir], and warm it: it records and caches every program (trace,
   columnar sidecar and write index). *)
let start_warm ~seed ~ebp ~dir =
  mkdir_p dir;
  let progs = programs ~seed in
  let d, stop = spawn ~ebp ~dir in
  let c = connect d "setup" in
  List.iter
    (fun p ->
      match Client.request c (query_req p "count") with
      | Ok (P.Report _) -> ()
      | _ -> die "%s: warm-up request failed" p.name)
    progs;
  Client.close c;
  (progs, d, stop)

let run ~seed ~seconds ~trace ~scratch ~ebp =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let mt = meter () in
  let start i =
    let dir = Filename.concat scratch (Printf.sprintf "serve%d" i) in
    let started, cost = measured ~wall:true mt "setup" (fun () -> start_warm ~seed ~ebp ~dir) in
    (dir, started, cost.wall_ms)
  in
  let earlier =
    List.init (daemon_setups - 1) (fun i ->
        let dir, (_, _, stop), ms = start i in
        stop ();
        rm_rf dir;
        ms)
  in
  let dir, (progs, d, stop), last_ms = start (daemon_setups - 1) in
  let setup_s = median (scaled mt "setup") /. 1000.0 in
  let cache = Filename.concat dir "cache" in
  (* The expected replies, rendered in process from the daemon's cache.
     This is the benchmark's own checking, so it is not part of setup_s. *)
  let (inter_plan, heavy_plan, events), expect_ms =
    timed (fun () ->
        let loaded = List.map (fun p -> (p.name, load ~dir:cache p)) progs in
        let res = List.find (fun p -> p.name = resident) progs in
        let pcs = Write_index.pc_writes (List.assoc resident loaded).index in
        let npcs = Write_index.key_count pcs in
        let points =
          List.init (rate_per_s - 1) (fun _ ->
              ( query_req res
                  (Printf.sprintf "count where pc = %d"
                     (Write_index.key_at pcs (Random.State.int rng npcs))),
                "point" ))
        in
        let with_expected reqs =
          Array.of_list
            (List.map (fun (req, kind) -> { req; want = expected loaded req; kind }) reqs)
        in
        let inter_plan = with_expected ((P.Ping, "ping") :: points) in
        let heavy_plan = with_expected (analyst_plan rng progs) in
        let events =
          List.fold_left (fun acc (_, l) -> acc + Trace.length l.trace) 0 loaded
        in
        (inter_plan, heavy_plan, events))
  in
  (* The peak resident set is the measured load's: forget the warm-up's. *)
  reset_peak_rss d.pid;
  let setup_note =
    Printf.sprintf "set-up                 %s s per daemon (median %.2f s); expected replies %.2f s"
      (String.concat ", "
         (List.map (fun ms -> Printf.sprintf "%.2f" (ms /. 1000.0)) (earlier @ [ last_ms ])))
      setup_s (expect_ms /. 1000.0)
  in
  let bytes_per_event () = float_of_int (dir_bytes cache) /. float_of_int events in
  if not trace then begin
    let t0 = now () and s0 = steal_ms () in
    let cold, warm = analyst_alone ~mt d heavy_plan ~deadline:(t0 +. float_of_int seconds) in
    let cold_ref = scaled mt "cold" and warm_ref = scaled mt "warm" in
    let speed = speed_note mt in
    mt.stop_probe ();
    let steal = steal_note ~t0 ~s0 in
    let rss = peak_rss_mb d.pid in
    stop ();
    let bytes_per_event = bytes_per_event () in
    let all = cold @ warm in
    let ok os = List.filter_map (fun o -> if o.s_why = None then Some o.s_cost else None) os in
    let of_kind k os = List.filter (fun o -> o.s_kind = k) os in
    let cold_ms = mean cold_ref and warm_ms = mean warm_ref in
    let warm_tail, tail_label = tail_or_p90 warm_ref in
    let by_kind =
      List.map
        (fun k ->
          Printf.sprintf "%s %.0f/%.0f ms" k
            (mean (cpus (ok (of_kind k cold))))
            (mean (cpus (ok (of_kind k warm)))))
        [ "sessions"; "group-by"; "distinct"; "live-join" ]
    in
    {
      samples = [ ("cold", List.length (ok cold)); ("warm", List.length (ok warm)) ];
      attempted = List.length all;
      failures = List.filter_map (fun o -> o.s_why) all;
      metrics =
        [ m "setup_s" "s" setup_s; m "cold_ref_ms" "ms" cold_ms;
          m "warm_ref_ms" "ms" warm_ms; m "warm_tail_ref_ms" "ms" warm_tail;
          m "bytes_per_event" "B" bytes_per_event; m "peak_rss_mb" "MB" rss ];
      notes =
        [
          Printf.sprintf "analyst cold           %.1f ms daemon CPU per request at reference speed  (mean of %d, %.0f passes; CPU mean %.1f ms; wall mean %.1f ms)"
            cold_ms (List.length cold)
            (float_of_int (List.length cold) /. float_of_int (Array.length heavy_plan))
            (mean (cpus (ok cold))) (mean (walls (ok cold)));
          Printf.sprintf "analyst warm           %.1f ms daemon CPU per request at reference speed  (mean of %d; tail %s %.1f ms; CPU mean %.1f ms; wall mean %.1f ms)"
            warm_ms (List.length warm) tail_label warm_tail (mean (cpus (ok warm)))
            (mean (walls (ok warm)));
          "  daemon CPU cold/warm mean by kind: " ^ String.concat ", " by_kind;
          Printf.sprintf "daemon peak rss        %.1f MB (measured load, set-up excluded)" rss;
          setup_note;
          steal;
          speed;
        ];
    }
  end
  else begin
    (* The two tenants together, the blocking a non-blocking server
       removes, for half the time; then the layers in process. *)
    mt.stop_probe ();
    let r = drive d ~inter_plan ~heavy_plan ~seconds:(float_of_int seconds /. 2.0) in
    stop ();
    let all = r.inter @ r.heavy in
    let failures = List.filter_map (fun o -> o.why) all in
    let lat os = List.filter_map (fun o -> if o.why = None then Some o.lat_ms else None) os in
    let of_kind k os = List.filter (fun o -> o.kind = k) os in
    let points_ms = lat (of_kind "point" r.inter) in
    let point_tail, tail_label = tail_or_p90 points_ms in
    let heavy_qps = float_of_int (List.length r.heavy) /. r.elapsed in
    let lag = median r.lags in
    let notes =
      [
        Printf.sprintf "interactive_p50_ms     %.2f ms  (point queries behind the analyst, n=%d, open loop at %d/s)"
          (median points_ms) (List.length points_ms) rate_per_s;
        Printf.sprintf "interactive_tail_ms    %.2f ms  (%s)" point_tail tail_label;
        Printf.sprintf "  ping p50 %.2f ms (n=%d)"
          (median (lat (of_kind "ping" r.inter)))
          (List.length (of_kind "ping" r.inter));
        Printf.sprintf "heavy_qps              %.3f /s  (n=%d, closed loop with a %.0f ms pause)"
          heavy_qps (List.length r.heavy) (think_s *. 1000.0);
        Printf.sprintf "generator lag          p50 %.2f ms, max %.1f ms" lag
          (List.fold_left max 0.0 r.lags);
        setup_note;
      ]
    in
    let gc0 = gc_mark () in
    let points = Array.of_list (List.filter (fun it -> it.req <> P.Ping) (Array.to_list inter_plan)) in
    let layers = probe_layers ~dir:cache ~heavy_plan ~points in
    let minor_mb, majors = gc_since gc0 in
    {
      attempted = List.length all;
      failures;
      samples = [ ("interactive", List.length points_ms); ("analyst", List.length r.heavy) ];
      metrics =
        layers
        @ [ m "serve.interactive_p50_ms" "ms" (median points_ms);
            m "serve.interactive_tail_ms" "ms" point_tail;
            m "serve.heavy_qps" "1/s" heavy_qps;
            m "serve.generator_lag_ms" "ms" lag; m "gc.minor_mb" "MB" minor_mb;
            m "gc.major_collections" "count" (float_of_int majors) ];
      notes;
    }
  end
