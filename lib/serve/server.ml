module Metrics = Ebp_obs.Metrics
module Span = Ebp_obs.Span
module Fault = Ebp_util.Fault
module P = Protocol

let m_requests = Metrics.counter "serve.requests"
let m_queries = Metrics.counter "serve.queries"
let m_overloaded = Metrics.counter "serve.overloaded"
let m_coalesced = Metrics.counter "serve.coalesced"
let m_batches = Metrics.counter "serve.batches"
let m_accepts = Metrics.counter "serve.accepts"
let m_conn_errors = Metrics.counter "serve.conn_errors"
let m_bytes_in = Metrics.counter "serve.bytes_in"
let m_bytes_out = Metrics.counter "serve.bytes_out"
let m_queue_delay = Metrics.histogram "serve.queue_delay_ns"
let m_queue_depth = Metrics.gauge "serve.queue_depth"
let m_connections = Metrics.gauge "serve.connections"

let fp_accept = Fault.point "serve.accept"
let fp_read = Fault.point "serve.read"
let fp_write = Fault.point "serve.write"

(* Tenant names flow into metric names; force them into the dotted-path
   alphabet so an adversarial tenant cannot mint unreadable metrics. *)
let sanitize_tenant tenant =
  let ok = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> true | _ -> false in
  let tenant = if tenant = "" then "default" else tenant in
  String.map (fun c -> if ok c then c else '_') tenant

let tenant_latency tenant =
  Metrics.histogram (Printf.sprintf "serve.tenant.%s.latency_ns" tenant)

module Core = struct
  type config = {
    queue_limit : int;
    lru_capacity : int;
    domains : int;
    cache_dir : string option;
    server_name : string;
  }

  let default_config =
    {
      queue_limit = 64;
      lru_capacity = 8;
      domains = 1;
      cache_dir = None;
      server_name = "ebp serve/1.0.0";
    }

  type queued_query = {
    q_tenant : string;
    q_req : P.request;
    q_reply : P.response -> unit;
    q_enq_ns : int;
  }

  type t = {
    config : config;
    store : Trace_store.t;
    live : Live.t;
    pool : Ebp_util.Domain_pool.t;
    queues : (string, queued_query Queue.t) Hashtbl.t;
    ring : string Queue.t;
        (* round-robin cursor: every tenant with a nonempty queue appears
           at least once; stale names (emptied by coalescing) are skipped
           and dropped on pop *)
    mutable queued : int;
    mutable draining : bool;
  }

  let create config =
    let pool = Ebp_util.Domain_pool.create ~domains:(max 1 config.domains) () in
    {
      config;
      store =
        Trace_store.create ~capacity:config.lru_capacity
          ?cache_dir:config.cache_dir ~pool ();
      live = Live.create ();
      pool;
      queues = Hashtbl.create 8;
      ring = Queue.create ();
      queued = 0;
      draining = false;
    }

  let pending t = t.queued
  let draining t = t.draining
  let request_shutdown t = t.draining <- true

  (* --- execution --- *)

  (* [None] = let the planner decide. Parsed before the (possibly
     expensive) fetch so a bad engine string still fails fast. *)
  let engine_of_string = function
    | "auto" -> Ok None
    | "indexed" -> Ok (Some Ebp_sessions.Replay.Indexed)
    | "scan" -> Ok (Some Ebp_sessions.Replay.Scan)
    | other -> Error other

  let execute_query t (req : P.request) : P.response =
    match req with
    | P.Sessions_query { name; source; seed; engine; keep_hitless } -> (
        match engine_of_string engine with
        | Error other ->
            P.Error_resp
              {
                code = P.Bad_request;
                message = Printf.sprintf "unknown engine %S" other;
              }
        | Ok engine -> (
            match Trace_store.fetch t.store ~name ~source ~seed with
            | Error msg -> P.Error_resp { code = P.Bad_request; message = msg }
            | Ok (trace, index) ->
                (* The store always holds the index, so for the planner
                   "reuse" is free: the choice degenerates to
                   reuse-vs-scan, decided per trace. *)
                P.Report
                  (Render.sessions_report
                     (Ebp_sessions.Planner.replay ~pool:t.pool ~keep_hitless
                        ?engine
                        ~index_source:(Ebp_sessions.Planner.resident index)
                        trace))))
    | P.Experiment_query { workloads; artifact } -> (
        if not (List.mem artifact Render.experiment_artifacts) then
          P.Error_resp
            {
              code = P.Unknown_artifact;
              message = Printf.sprintf "unknown artifact %S" artifact;
            }
        else
          let resolved =
            List.fold_left
              (fun acc name ->
                match acc with
                | Error _ -> acc
                | Ok ws -> (
                    match Ebp_workloads.Workload.by_name name with
                    | Some w -> Ok (w :: ws)
                    | None -> Error name))
              (Ok []) workloads
          in
          match resolved with
          | Error name ->
              P.Error_resp
                {
                  code = P.Unknown_workload;
                  message = Printf.sprintf "unknown workload %S" name;
                }
          | Ok ws -> (
              let workloads =
                if ws = [] then Ebp_workloads.Workload.all else List.rev ws
              in
              match
                Ebp_core.Experiment.run ~workloads ~domains:t.config.domains
                  ?cache_dir:t.config.cache_dir ()
              with
              | Error msg -> P.Error_resp { code = P.Internal; message = msg }
              | Ok e -> (
                  match Render.experiment_report e ~artifact with
                  | Ok text -> P.Report text
                  | Error msg ->
                      P.Error_resp { code = P.Unknown_artifact; message = msg })))
    | P.Query { name; source; seed; expr; engine; format } -> (
        let bad message = P.Error_resp { code = P.Bad_request; message } in
        match
          ( Ebp_query.Query.engine_of_string engine,
            Ebp_query.Query.format_of_string format )
        with
        | Error msg, _ | _, Error msg -> bad msg
        | Ok engine, Ok format -> (
            match Ebp_query.Query.parse expr with
            | Error e -> bad (Ebp_query.Parser.error_line expr e)
            | Ok q -> (
                match Trace_store.fetch t.store ~name ~source ~seed with
                | Error msg -> bad msg
                | Ok (trace, index) ->
                    (* The store's prebuilt index rides along, so under
                       [auto] the planner prices reuse, not a build. *)
                    let execution =
                      Ebp_query.Query.run ~engine ~index ~pool:t.pool trace q
                    in
                    P.Report
                      (Ebp_query.Query.render ~format trace q
                         execution.Ebp_query.Query.raw))))
    | P.Live_query { name; source; seed; expr; format; min_events } -> (
        let bad message = P.Error_resp { code = P.Bad_request; message } in
        match Ebp_query.Query.format_of_string format with
        | Error msg -> bad msg
        | Ok format -> (
            match Ebp_query.Query.parse expr with
            | Error e -> bad (Ebp_query.Parser.error_line expr e)
            | Ok q -> (
                match Live.fetch t.live ~name ~source ~seed ~min_events with
                | Error msg -> bad msg
                | Ok p ->
                    (* Answer over the sealed prefix with the incremental
                       index (absent when fault-degraded — the planner
                       then prices a build or scan over the prefix). The
                       reason marks live decisions in the metrics; a
                       completed recording is a full trace again. *)
                    let reason =
                      if p.Live.p_complete then Ebp_sessions.Planner.Full
                      else Ebp_sessions.Planner.Partial_index
                    in
                    let execution =
                      Ebp_query.Query.run ?index:p.Live.p_index ~pool:t.pool
                        ~reason p.Live.p_trace q
                    in
                    P.Live_report
                      {
                        report =
                          Ebp_query.Query.render ~format p.Live.p_trace q
                            execution.Ebp_query.Query.raw;
                        high_water = p.Live.p_high_water;
                        complete = p.Live.p_complete;
                      })))
    | P.Hello _ | P.Ping | P.Stats_query | P.Shutdown ->
        P.Error_resp { code = P.Internal; message = "not a query" }

  let execute t req =
    (* A query must never take the daemon down — except a simulated crash
       from the fault harness, whose whole point is to stop the world. *)
    try execute_query t req with
    | Fault.Killed _ as e -> raise e
    | e ->
        P.Error_resp { code = P.Internal; message = Printexc.to_string e }

  (* --- admission --- *)

  let tenant_queue t tenant =
    match Hashtbl.find_opt t.queues tenant with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.replace t.queues tenant q;
        q

  let submit t ~tenant ~reply (req : P.request) =
    Metrics.incr m_requests;
    let tenant = sanitize_tenant tenant in
    match req with
    | P.Hello { max_version; _ } ->
        if max_version >= 1 then
          reply
            (P.Hello_ok
               { version = P.protocol_version; server = t.config.server_name })
        else
          reply
            (P.Error_resp
               {
                 code = P.Unsupported_version;
                 message =
                   Printf.sprintf
                     "server speaks protocol version %d; client maximum is %d"
                     P.protocol_version max_version;
               })
    | P.Ping -> reply P.Pong
    | P.Stats_query ->
        reply (P.Stats (Ebp_obs.Export.to_ndjson (Metrics.snapshot ())))
    | P.Shutdown ->
        t.draining <- true;
        reply P.Shutdown_ack
    | P.Sessions_query _ | P.Experiment_query _ | P.Query _ | P.Live_query _ ->
        if t.draining then
          reply
            (P.Error_resp
               { code = P.Shutting_down; message = "server is draining" })
        else if t.queued >= t.config.queue_limit then begin
          Metrics.incr m_overloaded;
          reply (P.Overloaded { queued = t.queued; limit = t.config.queue_limit })
        end
        else begin
          Metrics.incr m_queries;
          let q = tenant_queue t tenant in
          let was_empty = Queue.is_empty q in
          Queue.push
            { q_tenant = tenant; q_req = req; q_reply = reply;
              q_enq_ns = Span.now_ns () }
            q;
          if was_empty then Queue.push tenant t.ring;
          t.queued <- t.queued + 1;
          Metrics.set m_queue_depth (float_of_int t.queued)
        end

  (* --- dispatch --- *)

  let rec next_tenant t =
    if Queue.is_empty t.ring then None
    else
      let name = Queue.pop t.ring in
      match Hashtbl.find_opt t.queues name with
      | Some q when not (Queue.is_empty q) -> Some (name, q)
      | _ -> next_tenant t

  (* Remove every queued query identical to [req], across all tenants:
     they will all be answered by the one execution about to happen. *)
  let take_matching t req =
    let taken = ref [] in
    Hashtbl.iter
      (fun _name q ->
        if not (Queue.is_empty q) then begin
          let keep = Queue.create () in
          Queue.iter
            (fun item ->
              if item.q_req = req then taken := item :: !taken
              else Queue.push item keep)
            q;
          Queue.clear q;
          Queue.transfer keep q
        end)
      t.queues;
    List.rev !taken

  let dispatch_one t =
    match next_tenant t with
    | None -> false
    | Some (name, q) ->
        let primary = Queue.pop q in
        let coalesced = take_matching t primary.q_req in
        if not (Queue.is_empty q) then Queue.push name t.ring;
        let batch = primary :: coalesced in
        t.queued <- t.queued - List.length batch;
        Metrics.set m_queue_depth (float_of_int t.queued);
        Metrics.incr m_batches;
        Metrics.add m_coalesced (List.length coalesced);
        let start_ns = Span.now_ns () in
        List.iter
          (fun item -> Metrics.observe m_queue_delay (start_ns - item.q_enq_ns))
          batch;
        let resp = Span.with_span "serve.execute" (fun () -> execute t primary.q_req) in
        let done_ns = Span.now_ns () in
        List.iter
          (fun item ->
            Metrics.observe (tenant_latency item.q_tenant)
              (done_ns - item.q_enq_ns);
            item.q_reply resp)
          batch;
        true

  let drain t = while dispatch_one t do () done

  let shutdown t =
    drain t;
    Ebp_util.Domain_pool.shutdown t.pool
end

(* --- the socket event loop --- *)

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable tenant : string;
  outq : string Queue.t;  (** encoded reply frames, oldest first *)
  mutable out_off : int;  (** bytes of the head frame already written *)
  mutable closing : bool;  (** close once [outq] is flushed *)
  mutable alive : bool;
}

let close_conn conn =
  if conn.alive then begin
    conn.alive <- false;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ())
  end

(* One queued frame per reply: queueing and writing cost that frame's
   bytes alone. [serve.write] sees each outgoing frame once. *)
let append_response conn resp =
  if conn.alive then
    match Fault.mangle fp_write (P.encode_response resp) with
    | exception Fault.Injected _ ->
        Metrics.incr m_conn_errors;
        close_conn conn
    | frame -> Queue.push frame conn.outq

let handle_request core conn (req : P.request) =
  (match req with
  | P.Hello { tenant; _ } -> conn.tenant <- sanitize_tenant tenant
  | _ -> ());
  Core.submit core ~tenant:conn.tenant ~reply:(append_response conn) req

(* Parse every complete frame out of the connection's input buffer. On a
   corrupt stream, send a best-effort framing error and close: after a
   framing failure nothing later on the stream can be trusted. *)
let process_frames core conn =
  let s = Buffer.contents conn.inbuf in
  let len = String.length s in
  let pos = ref 0 in
  let corrupt = ref None in
  let continue = ref true in
  while !continue && !corrupt = None && !pos < len do
    match P.decode ~buf:s ~pos:!pos ~len:(len - !pos) with
    | `Need_more -> continue := false
    | `Corrupt msg -> corrupt := Some msg
    | `Frame (P.Request req, consumed) ->
        pos := !pos + consumed;
        handle_request core conn req
    | `Frame (P.Response _, consumed) ->
        pos := !pos + consumed;
        corrupt := Some "unexpected response frame from client"
  done;
  if !pos > 0 then begin
    let rest = String.sub s !pos (len - !pos) in
    Buffer.clear conn.inbuf;
    Buffer.add_string conn.inbuf rest
  end;
  match !corrupt with
  | None -> ()
  | Some message ->
      Metrics.incr m_conn_errors;
      append_response conn (P.Error_resp { code = P.Bad_request; message });
      conn.closing <- true

let read_conn core conn =
  let chunk = Bytes.create 65536 in
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error _ ->
      Metrics.incr m_conn_errors;
      close_conn conn
  | 0 -> close_conn conn
  | n -> (
      Metrics.add m_bytes_in n;
      match Fault.mangle fp_read (Bytes.sub_string chunk 0 n) with
      | exception Fault.Injected _ ->
          Metrics.incr m_conn_errors;
          close_conn conn
      | data ->
          Buffer.add_string conn.inbuf data;
          process_frames core conn)

(* Write queued frames until the socket would block. *)
let rec flush_conn conn =
  if conn.alive && not (Queue.is_empty conn.outq) then begin
    let frame = Queue.peek conn.outq in
    let len = String.length frame - conn.out_off in
    match Unix.write_substring conn.fd frame conn.out_off len with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ ->
        Metrics.incr m_conn_errors;
        close_conn conn
    | n ->
        Metrics.add m_bytes_out n;
        if n < len then conn.out_off <- conn.out_off + n
        else begin
          ignore (Queue.pop conn.outq : string);
          conn.out_off <- 0;
          flush_conn conn
        end
  end
  else if conn.alive && conn.closing then close_conn conn

(* Bind the listener, refusing to replace a live daemon and cleaning up a
   stale socket file from a crashed one (the crash-recovery story in
   docs/SERVICE.md). *)
let bind_listener socket_path =
  let addr = Unix.ADDR_UNIX socket_path in
  let cleanup_stale () =
    match (Unix.stat socket_path).Unix.st_kind with
    | Unix.S_SOCK ->
        let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let live =
          try
            Unix.connect probe addr;
            true
          with Unix.Unix_error _ -> false
        in
        (try Unix.close probe with Unix.Unix_error _ -> ());
        if live then
          Error
            (Printf.sprintf "a live server already listens on %s" socket_path)
        else begin
          (* Stale socket from a crashed daemon: safe to reclaim. *)
          (try Sys.remove socket_path with Sys_error _ -> ());
          Ok ()
        end
    | _ ->
        Error
          (Printf.sprintf "%s exists and is not a socket; refusing to replace it"
             socket_path)
    | exception Unix.Unix_error _ -> Ok ()
  in
  match (if Sys.file_exists socket_path then cleanup_stale () else Ok ()) with
  | Error _ as e -> e
  | Ok () -> (
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      try
        Unix.bind fd addr;
        Unix.listen fd 64;
        Unix.set_nonblock fd;
        Ok fd
      with Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error
          (Printf.sprintf "cannot listen on %s: %s" socket_path
             (Unix.error_message e)))

(* How long a graceful shutdown waits for clients to read their replies
   before force-closing them. *)
let drain_grace_s = 5.0

let serve ?(on_ready = fun () -> ()) ~socket_path config () =
  match bind_listener socket_path with
  | Error _ as e -> e
  | Ok listen_fd ->
      let core = Core.create config in
      let stop_signal = ref false in
      let old_term =
        Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop_signal := true))
      and old_int =
        Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> stop_signal := true))
      and old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
      let conns = ref [] in
      let listener_open = ref true in
      let drain_deadline = ref None in
      let close_listener () =
        if !listener_open then begin
          listener_open := false;
          (try Unix.close listen_fd with Unix.Unix_error _ -> ());
          (try Sys.remove socket_path with Sys_error _ -> ())
        end
      in
      let accept_burst () =
        let continue = ref true in
        while !continue do
          match Fault.check fp_accept with
          | exception Fault.Injected _ ->
              Metrics.incr m_conn_errors;
              continue := false
          | () -> (
              match Unix.accept listen_fd with
              | exception
                  Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                  continue := false
              | exception Unix.Unix_error _ -> continue := false
              | fd, _ ->
                  Unix.set_nonblock fd;
                  Metrics.incr m_accepts;
                  conns :=
                    {
                      fd;
                      inbuf = Buffer.create 256;
                      tenant = "default";
                      outq = Queue.create ();
                      out_off = 0;
                      closing = false;
                      alive = true;
                    }
                    :: !conns)
        done
      in
      let finally () =
        close_listener ();
        List.iter close_conn !conns;
        Core.shutdown core;
        Sys.set_signal Sys.sigterm old_term;
        Sys.set_signal Sys.sigint old_int;
        Sys.set_signal Sys.sigpipe old_pipe
      in
      Fun.protect ~finally @@ fun () ->
      on_ready ();
      let finished = ref false in
      while not !finished do
        if !stop_signal then Core.request_shutdown core;
        if Core.draining core then begin
          close_listener ();
          if !drain_deadline = None then
            drain_deadline := Some (Unix.gettimeofday () +. drain_grace_s)
        end;
        conns := List.filter (fun c -> c.alive) !conns;
        Metrics.set m_connections (float_of_int (List.length !conns));
        let readable =
          (if !listener_open then [ listen_fd ] else [])
          @ List.filter_map
              (fun c -> if c.alive && not c.closing then Some c.fd else None)
              !conns
        and writable =
          List.filter_map
            (fun c ->
              if c.alive && not (Queue.is_empty c.outq) then Some c.fd
              else None)
            !conns
        in
        let timeout = if Core.pending core > 0 then 0.0 else 0.2 in
        (match Unix.select readable writable [] timeout with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | rs, _ws, _ ->
            if !listener_open && List.memq listen_fd rs then accept_burst ();
            List.iter
              (fun c -> if c.alive && List.memq c.fd rs then read_conn core c)
              !conns;
            Core.drain core;
            List.iter flush_conn !conns);
        if Core.draining core && Core.pending core = 0 then begin
          let unflushed =
            List.exists (fun c -> c.alive && not (Queue.is_empty c.outq)) !conns
          in
          let expired =
            match !drain_deadline with
            | Some d -> Unix.gettimeofday () > d
            | None -> false
          in
          if (not unflushed) || expired then finished := true
        end
      done;
      Ok ()
