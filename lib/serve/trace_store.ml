module Metrics = Ebp_obs.Metrics
module Span = Ebp_obs.Span
module Trace_cache = Ebp_trace.Trace_cache
module Write_index = Ebp_trace.Write_index
module Workload = Ebp_workloads.Workload
module Planner = Ebp_sessions.Planner

let m_warm = Metrics.counter "serve.store.warm_hits"
let m_disk = Metrics.counter "serve.store.disk_hits"
let m_cold = Metrics.counter "serve.store.cold_records"
let m_evict = Metrics.counter "serve.store.evictions"
let m_resident = Metrics.gauge "serve.store.resident"
let m_load_ns = Metrics.histogram "serve.store.load_ns"

type entry = {
  trace : Ebp_trace.Trace.t;
  index : Write_index.t;
  mutable last_used : int;
}

type t = {
  cap : int;
  cache_dir : string option;
  page_sizes : int list;
  pool : Ebp_util.Domain_pool.t option;
  tbl : (string, entry) Hashtbl.t;
  mutable tick : int;
}

let create ?(capacity = 8) ?cache_dir
    ?(page_sizes = Ebp_sessions.Replay.default_page_sizes) ?pool () =
  {
    cap = max 1 capacity;
    cache_dir;
    page_sizes;
    pool;
    tbl = Hashtbl.create 16;
    tick = 0;
  }

let resident t = Hashtbl.length t.tbl
let capacity t = t.cap

let touch t e =
  t.tick <- t.tick + 1;
  e.last_used <- t.tick

let evict_to_fit t =
  while Hashtbl.length t.tbl >= t.cap do
    let victim =
      Hashtbl.fold
        (fun key e acc ->
          match acc with
          | Some (_, best) when best.last_used <= e.last_used -> acc
          | _ -> Some (key, e))
        t.tbl None
    in
    match victim with
    | None -> assert false (* length >= cap >= 1 *)
    | Some (key, _) ->
        Hashtbl.remove t.tbl key;
        Metrics.incr m_evict
  done

let insert t key trace index =
  evict_to_fit t;
  let e = { trace; index; last_used = 0 } in
  touch t e;
  Hashtbl.replace t.tbl key e;
  Metrics.set m_resident (float_of_int (Hashtbl.length t.tbl));
  e

(* Record [source] from scratch and build its index (the cold tier). *)
let record_cold t ~source ~seed =
  Ebp_trace.Recorder.record_source ~seed source
  |> Result.map (fun (result, trace, _debug) ->
         Metrics.incr m_cold;
         let index =
           Write_index.build ?pool:t.pool ~page_sizes:t.page_sizes trace
         in
         let cycles = result.Ebp_runtime.Loader.cycles in
         (trace, Ebp_machine.Cost_model.ms_of_cycles cycles, index))

(* The disk tier goes through the same two doors as the batch surfaces,
   so a serve-populated entry is a first-class warm hit for [ebp
   experiment] too, and the other way round. *)
let load t ~key ~source ~seed =
  match t.cache_dir with
  | None ->
      record_cold t ~source ~seed
      |> Result.map (fun (trace, _base_ms, index) -> (trace, index))
  | Some dir ->
      Workload.cached_trace ~dir ~key ~record:(fun () ->
          record_cold t ~source ~seed)
      |> Result.map (fun (trace, _base_ms, origin) ->
             let index_source =
               Planner.cache_index ~dir ~key ~page_sizes:t.page_sizes
             in
             match origin with
             | Workload.Recorded (index, _) ->
                 index_source.Planner.store index;
                 (trace, index)
             | Workload.Hit ->
                 Metrics.incr m_disk;
                 ( trace,
                   Planner.load_or_build ?pool:t.pool ~page_sizes:t.page_sizes
                     index_source trace ))

let fetch t ~name ~source ~seed =
  let key = Trace_cache.make_key ~name ~source ~seed () in
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
      Metrics.incr m_warm;
      touch t e;
      Ok (e.trace, e.index)
  | None -> (
      let t0 = Span.now_ns () in
      match Span.with_span "serve.store.load" (fun () -> load t ~key ~source ~seed) with
      | Error _ as e -> e
      | Ok (trace, index) ->
          Metrics.observe m_load_ns (Span.now_ns () - t0);
          let e = insert t key trace index in
          Ok (e.trace, e.index))
