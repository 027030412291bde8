(* Tests for Ebp_serve: the EBPS frame codec (round-trip, strict
   rejection of damage), the server core (bounded admission, round-robin
   fairness, coalescing, graceful drain), the resident trace store, and a
   real forked daemon exercised over its socket — including bit-identity
   of served reports against the batch pipeline for all five workloads. *)

module P = Ebp_serve.Protocol
module Server = Ebp_serve.Server
module Core = Ebp_serve.Server.Core
module Client = Ebp_serve.Client
module Store = Ebp_serve.Trace_store
module Render = Ebp_serve.Render
module Replay = Ebp_sessions.Replay
module Workload = Ebp_workloads.Workload
module Metrics = Ebp_obs.Metrics
module Fault = Ebp_util.Fault

(* --- helpers --- *)

let tiny_src n =
  Printf.sprintf
    "int g;\nint main() {\n  int i;\n  for (i = 0; i < %d; i = i + 1) { g = g + i; }\n  return 0;\n}\n"
    n

let sessions_query ?(n = 8) ?(seed = 1) ?(engine = "indexed") () =
  P.Sessions_query
    {
      name = Printf.sprintf "tiny%d" n;
      source = tiny_src n;
      seed;
      engine;
      keep_hitless = false;
    }

let counter_value snapshot name =
  match
    List.find_opt (fun (n, _, _) -> n = name) snapshot.Metrics.counters
  with
  | Some (_, v, _) -> v
  | None -> Alcotest.failf "counter %s not in snapshot" name

(* Scope the metrics registry around a test body; the registry is global,
   so leave it disabled and empty for the other suites. *)
let with_metrics f =
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
    f

let default_core ?(queue_limit = 16) ?(domains = 1) () =
  Core.create
    { Core.default_config with queue_limit; domains; lru_capacity = 4 }

(* --- frame codec --- *)

let frame_gen =
  let open QCheck2.Gen in
  let str = string_size ~gen:char (0 -- 60) in
  let small = 0 -- 10_000 in
  let code =
    oneofl
      [
        P.Bad_request; P.Unknown_workload; P.Unknown_artifact;
        P.Unsupported_version; P.Shutting_down; P.Internal;
      ]
  in
  frequency
    [
      (2, map2 (fun t v -> P.Request (P.Hello { tenant = t; max_version = v })) str small);
      (1, return (P.Request P.Ping));
      ( 3,
        map3
          (fun name source seed ->
            P.Request
              (P.Sessions_query
                 { name; source; seed; engine = "indexed"; keep_hitless = seed mod 2 = 0 }))
          str str small );
      ( 2,
        map2
          (fun ws artifact -> P.Request (P.Experiment_query { workloads = ws; artifact }))
          (list_size (0 -- 5) str)
          str );
      ( 2,
        let* name = str and* source = str and* seed = small in
        let* expr = str
        and* engine = oneofl [ "auto"; "indexed"; "scan" ]
        and* format = oneofl [ "table"; "ndjson" ] in
        return (P.Request (P.Query { name; source; seed; expr; engine; format }))
      );
      ( 2,
        let* name = str and* source = str and* seed = small in
        let* expr = str
        and* format = oneofl [ "table"; "ndjson" ]
        and* min_events = small in
        return
          (P.Request (P.Live_query { name; source; seed; expr; format; min_events }))
      );
      (1, return (P.Request P.Stats_query));
      (1, return (P.Request P.Shutdown));
      ( 1,
        map2 (fun v s -> P.Response (P.Hello_ok { version = v; server = s })) small str );
      (1, return (P.Response P.Pong));
      (3, map (fun s -> P.Response (P.Report s)) str);
      ( 2,
        let* report = str and* high_water = small in
        let* complete = bool in
        return (P.Response (P.Live_report { report; high_water; complete })) );
      (1, map (fun s -> P.Response (P.Stats s)) str);
      ( 2,
        map2 (fun c m -> P.Response (P.Error_resp { code = c; message = m })) code str );
      ( 1,
        map2 (fun q l -> P.Response (P.Overloaded { queued = q; limit = l })) small small );
      (1, return (P.Response P.Shutdown_ack));
    ]

let frame_print f = Format.asprintf "%a" P.pp_frame f

let prop_frame_roundtrip =
  QCheck2.Test.make ~name:"frame codec roundtrip" ~count:500
    ~print:frame_print frame_gen (fun frame ->
      let enc = P.encode frame in
      match P.decode ~buf:enc ~pos:0 ~len:(String.length enc) with
      | `Frame (frame', consumed) ->
          P.equal_frame frame frame' && consumed = String.length enc
      | `Need_more | `Corrupt _ -> false)

let prop_frame_roundtrip_offset =
  QCheck2.Test.make ~name:"frame codec roundtrip at an offset" ~count:100
    ~print:frame_print frame_gen (fun frame ->
      (* The decoder must work mid-stream: garbage before [pos] and a
         following frame after are both ignored. *)
      let enc = P.encode frame in
      let buf = "JUNK" ^ enc ^ P.encode (P.Response P.Pong) in
      match P.decode ~buf ~pos:4 ~len:(String.length buf - 4) with
      | `Frame (frame', consumed) ->
          P.equal_frame frame frame' && consumed = String.length enc
      | `Need_more | `Corrupt _ -> false)

let prop_frame_truncation =
  QCheck2.Test.make ~name:"every truncation is Need_more or Corrupt"
    ~count:100 ~print:frame_print frame_gen (fun frame ->
      let enc = P.encode frame in
      let ok = ref true in
      for len = 0 to String.length enc - 1 do
        match P.decode ~buf:enc ~pos:0 ~len with
        | `Frame _ -> ok := false
        | `Need_more | `Corrupt _ -> ()
      done;
      !ok)

let prop_frame_bitflip =
  QCheck2.Test.make ~name:"every bit flip is rejected" ~count:60
    ~print:frame_print frame_gen (fun frame ->
      let enc = P.encode frame in
      let ok = ref true in
      for bit = 0 to (8 * String.length enc) - 1 do
        let b = Bytes.of_string enc in
        let i = bit / 8 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
        let buf = Bytes.to_string b in
        match P.decode ~buf ~pos:0 ~len:(String.length buf) with
        | `Frame _ ->
            (* CRC-32 detects every single-bit error; a successful decode
               of a flipped frame is a codec bug. *)
            ok := false
        | `Need_more | `Corrupt _ -> ()
      done;
      !ok)

let test_frame_oversized () =
  (* Handcraft an envelope claiming a payload far past the limit: the
     decoder must reject the claim before trying to buffer it. *)
  let b = Buffer.create 16 in
  Buffer.add_string b P.magic;
  Buffer.add_char b '\001';
  Buffer.add_char b '\002';
  (* 1 GiB, LEB128 *)
  List.iter (Buffer.add_char b) [ '\x80'; '\x80'; '\x80'; '\x80'; '\x04' ];
  let buf = Buffer.contents b in
  match P.decode ~buf ~pos:0 ~len:(String.length buf) with
  | `Corrupt msg ->
      if not (String.length msg > 0) then Alcotest.fail "empty reason"
  | `Need_more -> Alcotest.fail "oversized length must not ask for more"
  | `Frame _ -> Alcotest.fail "oversized frame decoded"

let test_frame_fault_point () =
  Fault.configure
    [ { Fault.pattern = "serve.frame.decode"; trigger = Fault.Nth 1; action = Fault.Fail } ];
  Fun.protect ~finally:Fault.reset @@ fun () ->
  let enc = P.encode (P.Response P.Pong) in
  (match P.decode ~buf:enc ~pos:0 ~len:(String.length enc) with
  | `Corrupt _ -> ()
  | _ -> Alcotest.fail "injected decode fault did not fire");
  match P.decode ~buf:enc ~pos:0 ~len:(String.length enc) with
  | `Frame (P.Response P.Pong, _) -> ()
  | _ -> Alcotest.fail "decode did not recover after nth=1 fault"

(* --- server core: admission, fairness, coalescing, drain --- *)

let test_overload () =
  let core = default_core ~queue_limit:3 () in
  Fun.protect ~finally:(fun () -> Core.shutdown core) @@ fun () ->
  let overloaded = ref 0 and replies = ref 0 in
  (* Distinct seeds so coalescing cannot shrink the batch to one reply. *)
  for seed = 1 to 8 do
    Core.submit core ~tenant:"flood"
      ~reply:(function
        | P.Overloaded { limit; _ } ->
            incr overloaded;
            Alcotest.(check int) "limit echoed" 3 limit
        | P.Report _ -> incr replies
        | r -> Alcotest.failf "unexpected %s" (Format.asprintf "%a" P.pp_frame (P.Response r)))
      (sessions_query ~seed ())
  done;
  Alcotest.(check int) "rejected beyond the bound" 5 !overloaded;
  Alcotest.(check int) "nothing answered before dispatch" 0 !replies;
  Alcotest.(check int) "admitted" 3 (Core.pending core);
  Core.drain core;
  Alcotest.(check int) "all admitted queries answered" 3 !replies;
  Alcotest.(check int) "queue empty" 0 (Core.pending core)

let test_round_robin_fairness () =
  let core = default_core () in
  Fun.protect ~finally:(fun () -> Core.shutdown core) @@ fun () ->
  let order = ref [] in
  let submit tenant tag seed =
    Core.submit core ~tenant
      ~reply:(function
        | P.Report _ -> order := tag :: !order
        | r -> Alcotest.failf "unexpected %s" (Format.asprintf "%a" P.pp_frame (P.Response r)))
      (sessions_query ~seed ())
  in
  (* Tenant a floods first; tenant b arrives later with one query. Round-
     robin must serve b second, not after all of a's backlog. *)
  submit "a" "a1" 1;
  submit "a" "a2" 2;
  submit "a" "a3" 3;
  submit "b" "b1" 4;
  Core.drain core;
  Alcotest.(check (list string))
    "round-robin interleaves tenants" [ "a1"; "b1"; "a2"; "a3" ]
    (List.rev !order)

let test_coalescing () =
  with_metrics @@ fun () ->
  let core = default_core () in
  Fun.protect ~finally:(fun () -> Core.shutdown core) @@ fun () ->
  let texts = ref [] in
  let q = sessions_query ~seed:7 () in
  List.iter
    (fun tenant ->
      Core.submit core ~tenant
        ~reply:(function
          | P.Report text -> texts := text :: !texts
          | r -> Alcotest.failf "unexpected %s" (Format.asprintf "%a" P.pp_frame (P.Response r)))
        q)
    [ "a"; "b"; "c"; "a"; "b" ];
  Alcotest.(check int) "five queued" 5 (Core.pending core);
  let progressed = Core.dispatch_one core in
  Alcotest.(check bool) "dispatched" true progressed;
  Alcotest.(check int) "one batch answered everything" 0 (Core.pending core);
  Alcotest.(check int) "five replies" 5 (List.length !texts);
  (match !texts with
  | first :: rest ->
      List.iter (fun t -> Alcotest.(check string) "identical reports" first t) rest
  | [] -> Alcotest.fail "no replies");
  let snap = Metrics.snapshot () in
  Alcotest.(check int) "one execution batch" 1 (counter_value snap "serve.batches");
  Alcotest.(check int) "four riders coalesced" 4 (counter_value snap "serve.coalesced")

let test_drain_and_refuse () =
  let core = default_core () in
  Fun.protect ~finally:(fun () -> Core.shutdown core) @@ fun () ->
  let answered = ref 0 in
  Core.submit core ~tenant:"t"
    ~reply:(function P.Report _ -> incr answered | _ -> Alcotest.fail "q1")
    (sessions_query ~seed:1 ());
  let acked = ref false in
  Core.submit core ~tenant:"t"
    ~reply:(function P.Shutdown_ack -> acked := true | _ -> Alcotest.fail "ack")
    P.Shutdown;
  Alcotest.(check bool) "shutdown acked" true !acked;
  Alcotest.(check bool) "draining" true (Core.draining core);
  let refused = ref false in
  Core.submit core ~tenant:"t"
    ~reply:(function
      | P.Error_resp { code = P.Shutting_down; _ } -> refused := true
      | _ -> Alcotest.fail "must refuse during drain")
    (sessions_query ~seed:2 ());
  Alcotest.(check bool) "new query refused" true !refused;
  Core.drain core;
  Alcotest.(check int) "queued query still answered" 1 !answered

let test_control_requests () =
  let core = default_core () in
  Fun.protect ~finally:(fun () -> Core.shutdown core) @@ fun () ->
  let got = ref None in
  let reply r = got := Some r in
  Core.submit core ~tenant:"t" ~reply P.Ping;
  (match !got with Some P.Pong -> () | _ -> Alcotest.fail "ping");
  Core.submit core ~tenant:"t" ~reply (P.Hello { tenant = "t"; max_version = 1 });
  (match !got with
  | Some (P.Hello_ok { version = 1; _ }) -> ()
  | _ -> Alcotest.fail "hello");
  Core.submit core ~tenant:"t" ~reply (P.Hello { tenant = "t"; max_version = 0 });
  (match !got with
  | Some (P.Error_resp { code = P.Unsupported_version; _ }) -> ()
  | _ -> Alcotest.fail "version negotiation must refuse max_version 0");
  Core.submit core ~tenant:"t" ~reply
    (P.Experiment_query { workloads = [ "no-such" ]; artifact = "table1" });
  Core.drain core;
  (match !got with
  | Some (P.Error_resp { code = P.Unknown_workload; _ }) -> ()
  | _ -> Alcotest.fail "unknown workload");
  Core.submit core ~tenant:"t" ~reply
    (P.Experiment_query { workloads = [ "circuit" ]; artifact = "tableX" });
  Core.drain core;
  match !got with
  | Some (P.Error_resp { code = P.Unknown_artifact; _ }) -> ()
  | _ -> Alcotest.fail "unknown artifact"

let query_request ?(expr = "count") ?(engine = "auto") ?(format = "table") () =
  P.Query { name = "tiny8"; source = tiny_src 8; seed = 1; expr; engine; format }

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_query_requests () =
  let core = default_core () in
  Fun.protect ~finally:(fun () -> Core.shutdown core) @@ fun () ->
  let got = ref None in
  let reply r = got := Some r in
  Core.submit core ~tenant:"t" ~reply (query_request ());
  Core.drain core;
  (* The served rendering is byte-identical to the batch query pipeline
     computed in this process. *)
  (match !got with
  | Some (P.Report served) ->
      let expected =
        match Ebp_trace.Recorder.record_source ~seed:1 (tiny_src 8) with
        | Error msg -> Alcotest.fail msg
        | Ok (_, trace, _) -> (
            match Ebp_query.Query.parse "count" with
            | Error _ -> Alcotest.fail "bench query must parse"
            | Ok q ->
                let e = Ebp_query.Query.run trace q in
                Ebp_query.Query.render ~format:Ebp_query.Query.Table trace q
                  e.Ebp_query.Query.raw)
      in
      Alcotest.(check string) "served = batch" expected served
  | _ -> Alcotest.fail "query must produce a report");
  (* A malformed query is a Bad_request carrying the one-line caret
     diagnostic — never a disconnect or an exception. *)
  Core.submit core ~tenant:"t" ~reply (query_request ~expr:"count where pc >" ());
  Core.drain core;
  (match !got with
  | Some (P.Error_resp { code = P.Bad_request; message }) ->
      if not (contains_sub message "query:1:17") then
        Alcotest.failf "diagnostic lacks caret position: %s" message
  | _ -> Alcotest.fail "malformed query must be bad-request");
  (* So is an unknown engine or format string. *)
  Core.submit core ~tenant:"t" ~reply (query_request ~engine:"warp" ());
  Core.drain core;
  (match !got with
  | Some (P.Error_resp { code = P.Bad_request; _ }) -> ()
  | _ -> Alcotest.fail "unknown engine must be bad-request");
  Core.submit core ~tenant:"t" ~reply (query_request ~format:"xml" ());
  Core.drain core;
  (match !got with
  | Some (P.Error_resp { code = P.Bad_request; _ }) -> ()
  | _ -> Alcotest.fail "unknown format must be bad-request");
  (* The core is unharmed by the errors. *)
  Core.submit core ~tenant:"t" ~reply P.Ping;
  match !got with
  | Some P.Pong -> ()
  | _ -> Alcotest.fail "ping after query errors"

(* A live query against the core: the sealed prefix must answer before
   the recording completes, the high-water mark must strictly advance
   across polls, the planner must record partial_index decisions, and
   the completed recording's report must be byte-identical to the batch
   query path. *)
let test_live_query () =
  with_metrics @@ fun () ->
  let core = default_core () in
  Fun.protect ~finally:(fun () -> Core.shutdown core) @@ fun () ->
  (* Enough iterations to out-grow one 64Ki-event block, so the first
     poll observes an incomplete prefix. *)
  let source = tiny_src 60_000 in
  let live min_events =
    let got = ref None in
    Core.submit core ~tenant:"t"
      ~reply:(fun r -> got := Some r)
      (P.Live_query
         { name = "livetiny"; source; seed = 1; expr = "count";
           format = "table"; min_events });
    Core.drain core;
    match !got with
    | Some (P.Live_report { report; high_water; complete }) ->
        (report, high_water, complete)
    | Some _ -> Alcotest.fail "unexpected live reply"
    | None -> Alcotest.fail "no live reply"
  in
  let _, first_hw, first_complete = live 0 in
  Alcotest.(check bool) "first prefix non-empty" true (first_hw > 0);
  Alcotest.(check bool) "answered before completion" false first_complete;
  let rec drive prev polls =
    if polls > 100 then Alcotest.fail "live recording never completed";
    let report, hw, complete = live prev in
    if complete then (report, hw)
    else begin
      Alcotest.(check bool) "high water strictly advances" true (hw > prev);
      drive hw (polls + 1)
    end
  in
  let final_report, final_hw = drive first_hw 0 in
  Alcotest.(check bool) "high water grew to completion" true
    (final_hw > first_hw);
  let batch =
    let got = ref None in
    Core.submit core ~tenant:"t"
      ~reply:(fun r -> got := Some r)
      (P.Query
         { name = "livetiny"; source; seed = 1; expr = "count";
           engine = "auto"; format = "table" });
    Core.drain core;
    match !got with
    | Some (P.Report text) -> text
    | _ -> Alcotest.fail "batch query must produce a report"
  in
  Alcotest.(check string) "completed live report = batch report" batch
    final_report;
  let snap = Metrics.snapshot () in
  Alcotest.(check bool) "partial_index decisions recorded" true
    (counter_value snap "planner.decision.partial_index" >= 1);
  (* A malformed live expression is a Bad_request, like Query. *)
  let got = ref None in
  Core.submit core ~tenant:"t"
    ~reply:(fun r -> got := Some r)
    (P.Live_query
       { name = "livetiny"; source; seed = 1; expr = "count where";
         format = "table"; min_events = 0 });
  Core.drain core;
  match !got with
  | Some (P.Error_resp { code = P.Bad_request; _ }) -> ()
  | _ -> Alcotest.fail "malformed live query must be bad-request"

(* --- trace store --- *)

let test_store_lru () =
  with_metrics @@ fun () ->
  let store = Store.create ~capacity:2 () in
  let fetch n =
    match Store.fetch store ~name:(Printf.sprintf "tiny%d" n) ~source:(tiny_src n) ~seed:1 with
    | Ok _ -> ()
    | Error msg -> Alcotest.failf "fetch %d: %s" n msg
  in
  fetch 5;
  fetch 6;
  Alcotest.(check int) "at capacity" 2 (Store.resident store);
  fetch 5 (* warm *);
  fetch 7 (* evicts 6, the least recently used *);
  Alcotest.(check int) "still at capacity" 2 (Store.resident store);
  fetch 5 (* warm: must have survived the eviction *);
  let snap = Metrics.snapshot () in
  Alcotest.(check int) "cold records" 3 (counter_value snap "serve.store.cold_records");
  Alcotest.(check int) "warm hits" 2 (counter_value snap "serve.store.warm_hits");
  Alcotest.(check int) "evictions" 1 (counter_value snap "serve.store.evictions")

let test_store_disk_tier () =
  with_metrics @@ fun () ->
  let dir = Filename.temp_file "ebp-serve-store" "" in
  Sys.remove dir;
  (* A fresh store finds what an earlier store instance left on disk:
     decoded once per process, recorded once per fleet. *)
  let store1 = Store.create ~capacity:2 ~cache_dir:dir () in
  (match Store.fetch store1 ~name:"tiny9" ~source:(tiny_src 9) ~seed:1 with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  let store2 = Store.create ~capacity:2 ~cache_dir:dir () in
  (match Store.fetch store2 ~name:"tiny9" ~source:(tiny_src 9) ~seed:1 with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  let snap = Metrics.snapshot () in
  Alcotest.(check int) "one cold record" 1 (counter_value snap "serve.store.cold_records");
  Alcotest.(check int) "one disk hit" 1 (counter_value snap "serve.store.disk_hits");
  ignore (Ebp_trace.Trace_cache.clear ~dir : int * int)

(* --- the real daemon over its socket --- *)

let temp_socket () =
  let path = Filename.temp_file "ebp-serve" ".sock" in
  Sys.remove path;
  path

let fork_server ?(configure_faults = "") ~socket_path config =
  match Unix.fork () with
  | 0 ->
      (* Child: become the daemon. _exit skips the parent's at_exit
         (alcotest reporting) machinery. *)
      (try
         if configure_faults <> "" then
           ignore (Fault.configure_spec configure_faults : (unit, string) result);
         match Server.serve ~socket_path config () with
         | Ok () -> Unix._exit 0
         | Error _ -> Unix._exit 1
       with _ -> Unix._exit 2)
  | pid -> pid

let wait_exit pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> code
  | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> -1

let test_socket_bit_identity () =
  let socket_path = temp_socket () in
  let cache_dir = Filename.temp_file "ebp-serve-cache" "" in
  Sys.remove cache_dir;
  let pid =
    fork_server ~socket_path
      { Core.default_config with domains = 2; cache_dir = Some cache_dir }
  in
  Fun.protect ~finally:(fun () ->
      ignore (Ebp_trace.Trace_cache.clear ~dir:cache_dir : int * int))
  @@ fun () ->
  let result =
    Client.with_client ~tenant:"identity" ~socket_path (fun c ->
        List.fold_left
          (fun acc (w : Workload.t) ->
            match acc with
            | Error _ -> acc
            | Ok () -> (
                let req =
                  P.Sessions_query
                    {
                      name = w.Workload.name;
                      source = w.Workload.source;
                      seed = w.Workload.seed;
                      engine = "indexed";
                      keep_hitless = false;
                    }
                in
                match Client.request c req with
                | Error msg -> Error (w.Workload.name ^ ": " ^ msg)
                | Ok (P.Report served) -> (
                    (* The batch pipeline, computed in this process. *)
                    match
                      Ebp_trace.Recorder.record_source ~seed:w.Workload.seed
                        w.Workload.source
                    with
                    | Error msg -> Error msg
                    | Ok (_, trace, _) ->
                        let batch =
                          Render.sessions_report
                            (Replay.discover_and_replay trace)
                        in
                        if String.equal served batch then Ok ()
                        else Error (w.Workload.name ^ ": served <> batch"))
                | Ok r ->
                    Error
                      (Format.asprintf "%s: unexpected %a" w.Workload.name
                         P.pp_frame (P.Response r))))
          (Ok ()) Workload.all)
  in
  (match result with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  (match Client.with_client ~socket_path (fun c -> Client.request c P.Shutdown) with
  | Ok P.Shutdown_ack -> ()
  | Ok r -> Alcotest.failf "unexpected %s" (Format.asprintf "%a" P.pp_frame (P.Response r))
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check int) "daemon drained and exited cleanly" 0 (wait_exit pid)

let test_socket_flood_overload () =
  let socket_path = temp_socket () in
  let pid =
    fork_server ~socket_path { Core.default_config with queue_limit = 2 }
  in
  (* Pipeline a flood of identical queries in one write: far more than the
     admission bound. The daemon must answer every one — some Report (the
     admitted, coalesced batch), the rest explicit Overloaded — and stay
     alive. Responses may interleave across the rejection/report boundary,
     so only the multiset is asserted. *)
  let flood = 30 in
  (* Wait for the daemon via a throwaway client, then flood on a raw
     socket: pipelining is part of the protocol surface the Client
     deliberately doesn't use. *)
  (match Client.with_client ~socket_path (fun c -> Client.request c P.Ping) with
  | Ok P.Pong -> ()
  | _ -> Alcotest.fail "ping before flood");
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  let q = P.encode_request (sessions_query ~seed:3 ()) in
  let payload = String.concat "" (List.init flood (fun _ -> q)) in
  let rec write_all pos =
    if pos < String.length payload then
      write_all (pos + Unix.write_substring fd payload pos (String.length payload - pos))
  in
  write_all 0;
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let reports = ref 0 and overloaded = ref 0 in
  let rec read_frames () =
    if !reports + !overloaded < flood then begin
      let s = Buffer.contents buf in
      match P.decode ~buf:s ~pos:0 ~len:(String.length s) with
      | `Frame (P.Response (P.Report _), consumed) ->
          incr reports;
          consume s consumed
      | `Frame (P.Response (P.Overloaded { limit; _ }), consumed) ->
          incr overloaded;
          Alcotest.(check int) "limit echoed" 2 limit;
          consume s consumed
      | `Frame (f, _) ->
          Alcotest.failf "unexpected %s" (Format.asprintf "%a" P.pp_frame f)
      | `Corrupt msg -> Alcotest.failf "corrupt stream: %s" msg
      | `Need_more ->
          let n = Unix.read fd chunk 0 (Bytes.length chunk) in
          if n = 0 then Alcotest.fail "server closed early";
          Buffer.add_subbytes buf chunk 0 n;
          read_frames ()
    end
  and consume s consumed =
    let rest = String.sub s consumed (String.length s - consumed) in
    Buffer.clear buf;
    Buffer.add_string buf rest;
    read_frames ()
  in
  read_frames ();
  Unix.close fd;
  Alcotest.(check int) "every request answered" flood (!reports + !overloaded);
  if !overloaded = 0 then Alcotest.fail "flood never saw backpressure";
  if !reports = 0 then Alcotest.fail "flood starved every query";
  (match Client.with_client ~socket_path (fun c -> Client.request c P.Shutdown) with
  | Ok P.Shutdown_ack -> ()
  | _ -> Alcotest.fail "shutdown");
  Alcotest.(check int) "clean exit" 0 (wait_exit pid)

(* Hundreds of distinct queries pipelined in one write: their replies
   (a few hundred KB together, more than a socket buffer holds, so the
   daemon's writes go partial) must arrive whole and in request order,
   each byte-identical to the batch render. *)
let test_socket_pipelined_replies () =
  let socket_path = temp_socket () in
  let n = 300 in
  let pid =
    fork_server ~socket_path { Core.default_config with queue_limit = n }
  in
  (* One write per global, each from its own pc: a tiny trace whose
     [group by pc] replies run to hundreds of rows. *)
  let globals = 400 in
  let source =
    String.concat ""
      (List.init globals (Printf.sprintf "int g%d;\n"))
    ^ "int main() {\n"
    ^ String.concat ""
        (List.init globals (fun i -> Printf.sprintf "  g%d = %d;\n" i i))
    ^ "  return 0;\n}\n"
  in
  let exprs =
    List.init n (fun k -> Printf.sprintf "count where pc >= %d group by pc" k)
  in
  let expected =
    match Ebp_trace.Recorder.record_source ~seed:1 source with
    | Error msg -> Alcotest.fail msg
    | Ok (_, trace, _) ->
        List.map
          (fun expr ->
            match Ebp_query.Query.parse expr with
            | Error _ -> Alcotest.failf "%S must parse" expr
            | Ok q ->
                let e = Ebp_query.Query.run trace q in
                Ebp_query.Query.render ~format:Ebp_query.Query.Table trace q
                  e.Ebp_query.Query.raw)
          exprs
  in
  (match Client.with_client ~socket_path (fun c -> Client.request c P.Ping) with
  | Ok P.Pong -> ()
  | _ -> Alcotest.fail "ping before pipelining");
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  (* A lost reply fails the test instead of hanging it. *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0;
  let payload =
    String.concat ""
      (List.map
         (fun expr ->
           P.encode_request
             (P.Query
                { name = "globals"; source; seed = 1; expr; engine = "auto";
                  format = "table" }))
         exprs)
  in
  let rec write_all pos =
    if pos < String.length payload then
      write_all
        (pos + Unix.write_substring fd payload pos (String.length payload - pos))
  in
  write_all 0;
  let buf = Buffer.create 65536 in
  let chunk = Bytes.create 65536 in
  let rec read_reports pos acc remaining =
    if remaining = 0 then List.rev acc
    else
      let s = Buffer.contents buf in
      match P.decode ~buf:s ~pos ~len:(String.length s - pos) with
      | `Frame (P.Response (P.Report r), consumed) ->
          read_reports (pos + consumed) (r :: acc) (remaining - 1)
      | `Frame (f, _) ->
          Alcotest.failf "unexpected %s" (Format.asprintf "%a" P.pp_frame f)
      | `Corrupt msg -> Alcotest.failf "corrupt stream: %s" msg
      | `Need_more ->
          let got = Unix.read fd chunk 0 (Bytes.length chunk) in
          if got = 0 then Alcotest.fail "server closed early";
          Buffer.add_subbytes buf chunk 0 got;
          read_reports pos acc remaining
  in
  let served = read_reports 0 [] n in
  Unix.close fd;
  Alcotest.(check bool) "replies outgrow a socket buffer" true
    (Buffer.length buf > 256 * 1024);
  List.iteri
    (fun k (want, got) ->
      Alcotest.(check string) (Printf.sprintf "reply %d" k) want got)
    (List.combine expected served);
  (match Client.with_client ~socket_path (fun c -> Client.request c P.Shutdown) with
  | Ok P.Shutdown_ack -> ()
  | _ -> Alcotest.fail "shutdown");
  Alcotest.(check int) "clean exit" 0 (wait_exit pid)

let test_socket_garbage_stream () =
  let socket_path = temp_socket () in
  let pid = fork_server ~socket_path Core.default_config in
  (* Wait for the daemon, then talk garbage on a raw socket: the server
     must answer with a framing error and close only that connection. *)
  (match Client.with_client ~socket_path (fun c -> Client.request c P.Ping) with
  | Ok P.Pong -> ()
  | _ -> Alcotest.fail "ping before garbage");
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  ignore (Unix.write_substring fd "XXXXXXXXXXXX" 0 12 : int);
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec read_until_eof () =
    let n = Unix.read fd chunk 0 (Bytes.length chunk) in
    if n > 0 then begin
      Buffer.add_subbytes buf chunk 0 n;
      read_until_eof ()
    end
  in
  read_until_eof ();
  Unix.close fd;
  let s = Buffer.contents buf in
  (match P.decode ~buf:s ~pos:0 ~len:(String.length s) with
  | `Frame (P.Response (P.Error_resp { code = P.Bad_request; _ }), _) -> ()
  | _ -> Alcotest.fail "expected a bad-request framing error");
  (* The daemon survived: a fresh connection still works. *)
  (match Client.with_client ~socket_path (fun c -> Client.request c P.Ping) with
  | Ok P.Pong -> ()
  | _ -> Alcotest.fail "ping after garbage");
  (match Client.with_client ~socket_path (fun c -> Client.request c P.Shutdown) with
  | Ok P.Shutdown_ack -> ()
  | _ -> Alcotest.fail "shutdown");
  Alcotest.(check int) "clean exit" 0 (wait_exit pid)

let test_socket_malformed_query () =
  let socket_path = temp_socket () in
  let pid = fork_server ~socket_path Core.default_config in
  (* One connection: a malformed query must come back as a clean EBPS
     error frame, and the same connection must then serve a valid query —
     the diagnostic is an answer, not a disconnect. *)
  let result =
    Client.with_client ~tenant:"q" ~socket_path (fun c ->
        let bad = Client.request c (query_request ~expr:"count where pc >" ()) in
        let good = Client.request c (query_request ()) in
        Ok (bad, good))
  in
  (match result with
  | Error msg -> Alcotest.fail msg
  | Ok (bad, good) ->
      (match bad with
      | Ok (P.Error_resp { code = P.Bad_request; message }) ->
          if not (contains_sub message "query:1:17") then
            Alcotest.failf "diagnostic lacks caret position: %s" message
      | Ok r ->
          Alcotest.failf "unexpected %s"
            (Format.asprintf "%a" P.pp_frame (P.Response r))
      | Error msg -> Alcotest.failf "connection died on bad query: %s" msg);
      match good with
      | Ok (P.Report _) -> ()
      | Ok r ->
          Alcotest.failf "unexpected %s"
            (Format.asprintf "%a" P.pp_frame (P.Response r))
      | Error msg -> Alcotest.failf "valid query after bad one: %s" msg);
  (match Client.with_client ~socket_path (fun c -> Client.request c P.Shutdown) with
  | Ok P.Shutdown_ack -> ()
  | _ -> Alcotest.fail "shutdown");
  Alcotest.(check int) "clean exit" 0 (wait_exit pid)

let test_socket_read_fault_and_signal () =
  let socket_path = temp_socket () in
  let pid =
    fork_server ~configure_faults:"serve.read:always:bitflip" ~socket_path
      Core.default_config
  in
  (* Every inbound chunk gets one bit flipped, so the CRC rejects every
     request — the client must fail cleanly, never hang, and the daemon
     must survive to shut down gracefully on SIGTERM. *)
  (match Client.connect ~socket_path () with
  | Ok c ->
      Client.close c;
      Alcotest.fail "hello should not survive a bit-flipped read"
  | Error _ -> ());
  Unix.kill pid Sys.sigterm;
  Alcotest.(check int) "SIGTERM drains cleanly" 0 (wait_exit pid)

let test_stale_socket_recovery () =
  (* A socket file with no listener behind it — the footprint of a
     crashed daemon — must be reclaimed, not refused. *)
  let socket_path = temp_socket () in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX socket_path);
  Unix.close fd (* bound but never listening: connect will be refused *);
  let pid = fork_server ~socket_path Core.default_config in
  (match Client.with_client ~socket_path (fun c -> Client.request c P.Ping) with
  | Ok P.Pong -> ()
  | _ -> Alcotest.fail "daemon did not reclaim the stale socket");
  (match Client.with_client ~socket_path (fun c -> Client.request c P.Shutdown) with
  | Ok P.Shutdown_ack -> ()
  | _ -> Alcotest.fail "shutdown");
  Alcotest.(check int) "clean exit" 0 (wait_exit pid)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          QCheck_alcotest.to_alcotest prop_frame_roundtrip;
          QCheck_alcotest.to_alcotest prop_frame_roundtrip_offset;
          QCheck_alcotest.to_alcotest prop_frame_truncation;
          QCheck_alcotest.to_alcotest prop_frame_bitflip;
          Alcotest.test_case "oversized frame rejected" `Quick test_frame_oversized;
          Alcotest.test_case "decode fault point" `Quick test_frame_fault_point;
        ] );
      ( "core",
        [
          Alcotest.test_case "bounded admission overload" `Quick test_overload;
          Alcotest.test_case "round-robin fairness" `Quick test_round_robin_fairness;
          Alcotest.test_case "coalescing" `Quick test_coalescing;
          Alcotest.test_case "drain and refuse" `Quick test_drain_and_refuse;
          Alcotest.test_case "control requests" `Quick test_control_requests;
          Alcotest.test_case "query requests" `Quick test_query_requests;
          Alcotest.test_case "live query" `Quick test_live_query;
        ] );
      ( "store",
        [
          Alcotest.test_case "lru eviction" `Quick test_store_lru;
          Alcotest.test_case "disk tier" `Quick test_store_disk_tier;
        ] );
      ( "socket",
        [
          Alcotest.test_case "bit-identity, all workloads" `Slow test_socket_bit_identity;
          Alcotest.test_case "flood gets backpressure" `Quick test_socket_flood_overload;
          Alcotest.test_case "pipelined replies whole and in order" `Quick
            test_socket_pipelined_replies;
          Alcotest.test_case "garbage stream" `Quick test_socket_garbage_stream;
          Alcotest.test_case "malformed query stays connected" `Quick
            test_socket_malformed_query;
          Alcotest.test_case "read fault + SIGTERM" `Quick test_socket_read_fault_and_signal;
          Alcotest.test_case "stale socket recovery" `Quick test_stale_socket_recovery;
        ] );
    ]
