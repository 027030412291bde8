(* One file per artifact, each a sealed image:

     <key>.trace          the EBPT4 columnar trace (Trace.encode),
                          caller meta in its header, self-sealed
     <key>.<ikey>.widx    a Write_index.encode body, sealed below
     <key>.<ckey>.ckpt    a Checkpoint.encode body, sealed below

   A seal is a 12-byte trailer, "EBPZ" plus the 8-byte LE CRC-32 of every
   byte before it — the same trailer EBPT4 carries — written into a slot
   the encoder reserved, so sealing never copies the image. The CRC is
   checked before anything is decoded, so truncation and bit flips are
   detected up front instead of surfacing as decoder errors — or worse,
   silently decoding to different events. A failed check quarantines the
   file (renamed [*.corrupt], counted, surfaced through the quarantine
   hook) and reads as a miss, so the caller transparently re-records.

   The version string below is hashed into every key and names the trace
   codec, so a format change silently orphans old entries instead of
   misreading them. *)
let version = "ebp-trace-cache-v6:" ^ Trace.codec_version
let trailer_magic = "EBPZ"
let trailer_len = 12

module Metrics = Ebp_obs.Metrics
module Span = Ebp_obs.Span
module Fault = Ebp_util.Fault
module Crc32 = Ebp_util.Crc32

(* Cache observability: hit/miss counters and latency histograms for every
   entry kind, byte traffic, corruption/retry accounting, and what garbage
   collection reclaimed. All updates are no-ops (one branch) until
   Metrics.set_enabled. The spans [cache.store], [cache.store_index],
   [cache.lookup], [cache.lookup_index] and [cache.crc] put the same
   operations on the --trace-events timeline. *)
let m_hits = Metrics.counter "trace_cache.hits"
let m_misses = Metrics.counter "trace_cache.misses"
let m_index_hits = Metrics.counter "trace_cache.index_hits"
let m_index_misses = Metrics.counter "trace_cache.index_misses"
let m_ckpt_hits = Metrics.counter "trace_cache.checkpoint_hits"
let m_ckpt_misses = Metrics.counter "trace_cache.checkpoint_misses"
let m_bytes_read = Metrics.counter "trace_cache.bytes_read"
let m_bytes_written = Metrics.counter "trace_cache.bytes_written"
let m_lookup_ns = Metrics.histogram "trace_cache.lookup_ns"
let m_store_ns = Metrics.histogram "trace_cache.store_ns"
let m_gc_removed = Metrics.counter "trace_cache.gc_removed"
let m_gc_reclaimed = Metrics.counter "trace_cache.gc_reclaimed_bytes"
let m_quarantined = Metrics.counter "trace_cache.quarantined"
let m_retries = Metrics.counter "trace_cache.store_retries"
let g_disk_bytes = Metrics.gauge "trace_cache.disk_bytes"

(* Fault points (see docs/ROBUSTNESS.md for the catalog). The store path
   distinguishes a transient I/O failure (retried), data corruption in
   flight (mangles the sealed bytes, so the CRC catches it on lookup),
   and three kill sites bracketing the write protocol; the lookup path
   has one data point mangling what was read. *)
let p_store_io = Fault.point "trace_cache.store.io"
let p_store_data = Fault.point "trace_cache.store.data"
let p_kill_tmp = Fault.point "trace_cache.store.kill_tmp"
let p_kill_write = Fault.point "trace_cache.store.kill_write"
let p_kill_rename = Fault.point "trace_cache.store.kill_rename"
let p_lookup_data = Fault.point "trace_cache.lookup.data"

let timed span hist f =
  Span.with_span span @@ fun () ->
  if not (Metrics.is_enabled ()) then f ()
  else begin
    let started_ns = Span.now_ns () in
    Fun.protect
      ~finally:(fun () -> Metrics.observe hist (Span.now_ns () - started_ns))
      f
  end

let default_dir () =
  let absolute p = String.length p > 0 && p.[0] = '/' in
  match Sys.getenv_opt "XDG_CACHE_HOME" with
  | Some dir when absolute dir -> Filename.concat dir "ebp"
  | _ -> (
      match Sys.getenv_opt "HOME" with
      | Some home when absolute home ->
          Filename.concat (Filename.concat home ".cache") "ebp"
      | _ -> ".ebp-cache")

let make_key ~name ~source ~seed ?fuel () =
  let fuel = match fuel with None -> "unlimited" | Some n -> string_of_int n in
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [ version; name; Digest.to_hex (Digest.string source);
            string_of_int seed; fuel ]))

let entry_path ~dir ~key = Filename.concat dir (key ^ ".trace")

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ()
  end

(* --- sealing --- *)

(* Seal [b] in place: its last [trailer_len] bytes are the reserved slot,
   everything before them the body. *)
let seal b =
  let body_len = Bytes.length b - trailer_len in
  Bytes.blit_string trailer_magic 0 b body_len 4;
  let crc =
    Span.with_span "cache.crc" @@ fun () ->
    Crc32.sub (Bytes.unsafe_to_string b) ~pos:0 ~len:body_len
  in
  Bytes.set_int64_le b (body_len + 4) (Int64.of_int crc);
  Bytes.unsafe_to_string b

(* Seal a body the encoder could not reserve a slot in: one copy. *)
let seal_string body =
  let b = Bytes.create (String.length body + trailer_len) in
  Bytes.blit_string body 0 b 0 (String.length body);
  seal b

(* The length of the verified body, which the decoders read in place. *)
let unseal data =
  let n = String.length data in
  if n < trailer_len then Error "entry shorter than its checksum trailer"
  else if String.sub data (n - trailer_len) 4 <> trailer_magic then
    Error "missing checksum trailer"
  else
    let body_len = n - trailer_len in
    (* Compare all 8 stored bytes: a CRC-32 occupies the low 4, so the
       high 4 must be zero — masking them off would let flips there pass. *)
    let stored = String.get_int64_le data (n - 8) in
    let crc =
      Span.with_span "cache.crc" @@ fun () -> Crc32.sub data ~pos:0 ~len:body_len
    in
    if stored <> Int64.of_int crc then Error "checksum mismatch"
    else Ok body_len

(* --- quarantine --- *)

let quarantine_log = ref (fun ~file:_ ~reason:_ -> ())
let set_quarantine_log f = quarantine_log := f

let quarantine_entry ~dir ~file ~reason =
  Metrics.incr m_quarantined;
  (try
     Sys.rename (Filename.concat dir file) (Filename.concat dir (file ^ ".corrupt"))
   with Sys_error _ -> ());
  !quarantine_log ~file ~reason

(* --- the store protocol --- *)

(* Write the sealed bytes to a fresh temp file and rename it into place.
   A [Fault.Killed] is a simulated crash: it must leave whatever litter a
   real kill at that site would (an empty temp file, a partial temp file,
   a complete-but-unrenamed temp file) for the crash-consistency tests —
   so only non-kill failures clean up the temp file. Lookups never see a
   partial entry either way: the rename is the commit point. *)
let write_entry ~path ~tmp data =
  let oc = open_out_bin tmp in
  (match
     Fault.check p_kill_tmp;
     let half = String.length data / 2 in
     output_substring oc data 0 half;
     Fault.check p_kill_write;
     output_substring oc data half (String.length data - half);
     Metrics.add m_bytes_written (String.length data)
   with
  | () -> close_out oc
  | exception e ->
      close_out_noerr oc;
      raise e);
  Fault.check p_kill_rename;
  Sys.rename tmp path

let max_store_attempts = 3

(* Transient failures (a Sys_error from the filesystem, an injected
   [Fail]) are retried with exponential backoff; corruption injected by
   [p_store_data] is NOT an error here — the sealed-then-mangled bytes
   land on disk and the CRC catches them at lookup time, which is the
   scenario the fault exists to create. *)
let store_file ~dir ~path data =
  let rec attempt n =
    match
      Fault.check p_store_io;
      let data = Fault.mangle p_store_data data in
      mkdir_p dir;
      let tmp =
        Filename.temp_file ~temp_dir:dir ("." ^ Filename.basename path) ".tmp"
      in
      (try write_entry ~path ~tmp data with
      | Fault.Killed _ as e -> raise e (* simulated crash: leave the litter *)
      | e ->
          (try if Sys.file_exists tmp then Sys.remove tmp with Sys_error _ -> ());
          raise e)
    with
    | () -> Ok ()
    | exception ((Sys_error _ | Fault.Injected _) as e) ->
        if n + 1 < max_store_attempts then begin
          Metrics.incr m_retries;
          Unix.sleepf (0.001 *. float_of_int (1 lsl n));
          attempt (n + 1)
        end
        else
          Error
            (match e with
            | Sys_error msg -> msg
            | Fault.Injected pt -> "injected fault at " ^ pt
            | _ -> assert false)
  in
  attempt 0

(* The EBPT4 image seals itself; the crash fault points fire during its
   write like any other entry's. *)
let store ~dir ~key ?(meta = "") trace =
  timed "cache.store" m_store_ns @@ fun () ->
  store_file ~dir ~path:(entry_path ~dir ~key)
    (Trace.encode ~meta trace)

let index_key ~key ~page_sizes =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          (version :: key :: Write_index.codec_version
          :: List.map string_of_int page_sizes)))

(* Key-prefixed ([<key>.<ikey>.widx]) so the GC can group an index with
   the trace it was built from; [ikey] still hashes the page sizes and
   codec versions, so distinct configurations coexist. *)
let index_path ~dir ~key ~page_sizes =
  Filename.concat dir (key ^ "." ^ index_key ~key ~page_sizes ^ ".widx")

let index_cached ~dir ~key ~page_sizes =
  Sys.file_exists (index_path ~dir ~key ~page_sizes)

let store_index ~dir ~key ~page_sizes index =
  timed "cache.store_index" m_store_ns @@ fun () ->
  store_file ~dir
    ~path:(index_path ~dir ~key ~page_sizes)
    (seal (Write_index.to_bytes ~reserve:trailer_len index))

(* Checkpoint chains are keyed like indices: [<key>.<ckey>.ckpt], with
   [ckey] rehashing the trace key and the checkpoint codec version, and
   the [<key>.] prefix tying the chain to its recording for the GC's
   orphan sweep. A chain is only meaningful next to the trace it was
   taken during (same program, seed, fuel — exactly what [key] hashes). *)
let checkpoint_key ~key =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00" [ version; key; Checkpoint.codec_version ]))

let checkpoint_path ~dir ~key =
  Filename.concat dir (key ^ "." ^ checkpoint_key ~key ^ ".ckpt")

let checkpoint_cached ~dir ~key = Sys.file_exists (checkpoint_path ~dir ~key)

let store_checkpoints ~dir ~key chain =
  timed "cache.store_checkpoints" m_store_ns @@ fun () ->
  store_file ~dir ~path:(checkpoint_path ~dir ~key)
    (seal_string (Checkpoint.encode chain))

(* --- lookups --- *)

(* The whole file in one exact-size read; [None] when it is absent,
   unreadable, or shrinks under us. *)
let read_file path =
  match
    In_channel.with_open_bin path (fun ic ->
        really_input_string ic (Int64.to_int (In_channel.length ic)))
  with
  | data -> Some data
  | exception (Sys_error _ | End_of_file) -> None

(* Load path of the sealed entries: read the whole file, pass it through
   the lookup fault point, verify the trailer, then decode the body in
   place. An absent or unreadable file is a plain miss; an injected
   transient read fault is a miss that leaves the (possibly fine) entry
   alone; a failed integrity check or decode quarantines the file and
   falls back to a miss, which makes the caller re-record. *)
let load_entry ~dir ~file (decode : ?len:int -> string -> ('a, string) result)
    =
  match read_file (Filename.concat dir file) with
  | None -> None
  | Some data -> (
      match Fault.mangle p_lookup_data data with
      | exception Fault.Injected _ -> None
      | data -> (
          Metrics.add m_bytes_read (String.length data);
          match Result.bind (unseal data) (fun len -> decode ~len data) with
          | Ok v -> Some v
          | Error reason ->
              quarantine_entry ~dir ~file ~reason;
              None))

(* A trace entry is mapped, not read: the mmap fast path validates its
   structure but trusts the payload CRC (see Trace.map_file). Under
   fault injection — exactly when bytes get mangled in flight — the load
   reads the file through the lookup fault point and verifies everything,
   CRC included. Any failure is a miss: an injected transient one leaves
   the file alone, a damaged or unmappable entry is quarantined first. *)
let lookup ~dir ~key =
  timed "cache.lookup" m_lookup_ns @@ fun () ->
  let file = key ^ ".trace" in
  let path = Filename.concat dir file in
  let found =
    if not (Sys.file_exists path) then None
    else
      let verify = Fault.active () in
      match
        Trace.map_file ~verify
          ~mangle:(fun data ->
            let data = Fault.mangle p_lookup_data data in
            Metrics.add m_bytes_read (String.length data);
            data)
          path
      with
      | exception Fault.Injected _ -> None
      | Ok hit -> Some hit
      | Error reason ->
          quarantine_entry ~dir ~file ~reason;
          None
  in
  Metrics.incr (match found with Some _ -> m_hits | None -> m_misses);
  found

let lookup_index ~dir ~key ~page_sizes =
  timed "cache.lookup_index" m_lookup_ns @@ fun () ->
  let file = Filename.basename (index_path ~dir ~key ~page_sizes) in
  let found = load_entry ~dir ~file Write_index.decode in
  Metrics.incr (match found with Some _ -> m_index_hits | None -> m_index_misses);
  found

let lookup_checkpoints ~dir ~key =
  timed "cache.lookup_checkpoints" m_lookup_ns @@ fun () ->
  let file = Filename.basename (checkpoint_path ~dir ~key) in
  let found = load_entry ~dir ~file Checkpoint.decode in
  Metrics.incr (match found with Some _ -> m_ckpt_hits | None -> m_ckpt_misses);
  found

(* Garbage collection. The odoc contract is that entries never need
   invalidation (keys are content hashes over the codec version), only
   reclamation — so GC is pure space management: drop temp-file litter
   from interrupted stores and quarantined corpses, then evict
   coldest-first by mtime. *)

type entry_kind =
  | Trace_entry
  | Index_entry
  | Checkpoint_entry
  | Tmp_entry
  | Corrupt_entry

type entry = {
  entry_file : string;
  entry_kind : entry_kind;
  entry_bytes : int;
  entry_mtime : float;
}

let classify file =
  (* Quarantined corpses first ([<key>.trace.corrupt] must not count as a
     trace); temp files look like [.<key>.traceNNNNN.tmp]. *)
  if Filename.check_suffix file ".corrupt" then Some Corrupt_entry
  else if Filename.check_suffix file ".trace" then Some Trace_entry
  else if Filename.check_suffix file ".widx" then Some Index_entry
  else if Filename.check_suffix file ".ckpt" then Some Checkpoint_entry
  else if Filename.check_suffix file ".tmp" && String.length file > 0
          && file.[0] = '.' then Some Tmp_entry
  else None

(* The trace key an entry belongs to. Traces own themselves; index and
   checkpoint names are [<key>.<ikey>.widx] / [<key>.<ckey>.ckpt], so the
   key is the leading dot component — which also classifies a pre-v4
   bare [<ikey>.widx] as owned by a key that has no trace, i.e. an
   orphan. *)
let owner_key e =
  match e.entry_kind with
  | Trace_entry -> Some (Filename.chop_suffix e.entry_file ".trace")
  | Index_entry | Checkpoint_entry -> (
      match String.index_opt e.entry_file '.' with
      | Some i -> Some (String.sub e.entry_file 0 i)
      | None -> None)
  | Tmp_entry | Corrupt_entry -> None

let entries ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | files ->
      Array.to_list files
      |> List.filter_map (fun file ->
             match classify file with
             | None -> None
             | Some entry_kind -> (
                 match Unix.stat (Filename.concat dir file) with
                 | exception Unix.Unix_error _ -> None
                 | st when st.Unix.st_kind <> Unix.S_REG -> None
                 | st ->
                     Some
                       {
                         entry_file = file;
                         entry_kind;
                         entry_bytes = st.Unix.st_size;
                         entry_mtime = st.Unix.st_mtime;
                       }))
      |> List.sort (fun a b ->
             match compare a.entry_mtime b.entry_mtime with
             | 0 -> compare a.entry_file b.entry_file
             | c -> c)

let entry_events ~dir e =
  let header parse =
    match
      In_channel.with_open_bin (Filename.concat dir e.entry_file) (fun ic ->
          really_input_string ic 16)
    with
    | s -> parse s
    | exception (Sys_error _ | End_of_file) -> None
  in
  match e.entry_kind with
  | Trace_entry -> header Trace.header_events
  | Index_entry -> header Write_index.header_events
  | Checkpoint_entry | Tmp_entry | Corrupt_entry -> None

let remove_entry ~dir e =
  match Sys.remove (Filename.concat dir e.entry_file) with
  | () ->
      Metrics.incr m_gc_removed;
      Metrics.add m_gc_reclaimed e.entry_bytes;
      true
  | exception Sys_error _ -> false

let total_bytes es =
  List.fold_left (fun acc e -> acc + e.entry_bytes) 0 es

let clear ~dir =
  let removed, reclaimed =
    List.fold_left
      (fun (n, b) e ->
        if remove_entry ~dir e then (n + 1, b + e.entry_bytes) else (n, b))
      (0, 0) (entries ~dir)
  in
  Metrics.set g_disk_bytes (float_of_int (total_bytes (entries ~dir)));
  (removed, reclaimed)

let gc ~dir ~max_bytes =
  let litter, live =
    List.partition
      (fun e -> e.entry_kind = Tmp_entry || e.entry_kind = Corrupt_entry)
      (entries ~dir)
  in
  (* An index or checkpoint whose owning trace entry is gone — deleted by
     hand, evicted by an older GC, or stranded by a key-version bump — is
     dead weight no lookup will ever reach: reclaim it with the litter. *)
  let trace_keys = Hashtbl.create 64 in
  List.iter
    (fun e ->
      if e.entry_kind = Trace_entry then
        match owner_key e with
        | Some k -> Hashtbl.replace trace_keys k ()
        | None -> ())
    live;
  let orphans, live =
    List.partition
      (fun e ->
        e.entry_kind <> Trace_entry
        && not
             (match owner_key e with
             | Some k -> Hashtbl.mem trace_keys k
             | None -> false))
      live
  in
  let drop acc e =
    let n, b = acc in
    if remove_entry ~dir e then (n + 1, b + e.entry_bytes) else acc
  in
  let acc = List.fold_left drop (0, 0) (litter @ orphans) in
  (* Evict whole ownership groups (a trace with its indexes and
     checkpoints), coldest trace first — [live] is oldest-mtime-first and
     every survivor has an owner in [trace_keys], so walking it and
     deleting each entry's entire group on first contact preserves the
     coldest-first order while never leaving a freshly-orphaned entry
     behind. *)
  let group_of key =
    List.filter (fun e -> owner_key e = Some key) live
  in
  let evicted = Hashtbl.create 16 in
  let acc, _ =
    List.fold_left
      (fun ((n, b), remaining) e ->
        let key = Option.get (owner_key e) in
        if Hashtbl.mem evicted key || remaining <= max_bytes then
          ((n, b), remaining)
        else begin
          Hashtbl.add evicted key ();
          List.fold_left
            (fun ((n, b), remaining) e ->
              if remove_entry ~dir e then
                ((n + 1, b + e.entry_bytes), remaining - e.entry_bytes)
              else ((n, b), remaining))
            ((n, b), remaining)
            (group_of key)
        end)
      (acc, total_bytes live)
      live
  in
  Metrics.set g_disk_bytes (float_of_int (total_bytes (entries ~dir)));
  acc

(* --- integrity scan --- *)

type verify_report = {
  checked : int;
  intact : int;
  corrupt : (string * string) list;
  tmp_litter : int;
}

let verify ?(quarantine = true) ~dir () =
  let checked = ref 0 and intact = ref 0 and tmp_litter = ref 0 in
  let corrupt = ref [] in
  List.iter
    (fun e ->
      match e.entry_kind with
      | Tmp_entry -> incr tmp_litter
      | Corrupt_entry -> ()
      | Trace_entry | Index_entry | Checkpoint_entry -> (
          incr checked;
          let sealed decode data =
            Result.bind (unseal data) (fun len ->
                Result.map ignore (decode ?len:(Some len) data))
          in
          let result =
            match read_file (Filename.concat dir e.entry_file) with
            | None -> Error "unreadable"
            | Some data -> (
                match e.entry_kind with
                (* EBPT4 seals itself: the full decoder checks its CRC and
                   everything the mmap fast path trusts, so this is where
                   damage the mapped load would miss gets caught. *)
                | Trace_entry ->
                    Result.map ignore (Trace.decode data)
                | Checkpoint_entry -> sealed Checkpoint.decode data
                | _ -> sealed Write_index.decode data)
          in
          match result with
          | Ok () -> incr intact
          | Error reason ->
              corrupt := (e.entry_file, reason) :: !corrupt;
              if quarantine then
                quarantine_entry ~dir ~file:e.entry_file ~reason))
    (entries ~dir);
  {
    checked = !checked;
    intact = !intact;
    corrupt =
      List.sort (fun (a, _) (b, _) -> String.compare a b) !corrupt;
    tmp_litter = !tmp_litter;
  }
