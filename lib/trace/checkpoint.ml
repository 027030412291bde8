module Machine = Ebp_machine.Machine
module Memory = Ebp_machine.Memory
module Loader = Ebp_runtime.Loader
module Allocator = Ebp_runtime.Allocator
module Fault = Ebp_util.Fault
module Metrics = Ebp_obs.Metrics

(* One checkpoint: the machine-above-memory state plus the pages dirtied
   since the PREVIOUS checkpoint. Memory at checkpoint [k] is therefore
   (fresh load image) overlaid with the page deltas of checkpoints
   0..k in order — a delta chain, like the sealed blocks it rides with. *)
type entry = {
  e_event : int;  (* trace timestamp when taken: events emitted so far *)
  e_nobjs : int;  (* objects registered so far *)
  e_loader : Loader.snapshot;
  e_recorder : Recorder.snapshot;
  e_pages : (int * bytes) list;
}

type t = { mutable entries_rev : entry list; mutable skipped : int }

let p_store = Fault.point "checkpoint.store"
let m_taken = Metrics.counter "checkpoint.taken"
let m_skipped = Metrics.counter "checkpoint.skipped"
let m_pages = Metrics.counter "checkpoint.pages"
let m_restores = Metrics.counter "checkpoint.restores"

let create () = { entries_rev = []; skipped = 0 }
let count t = List.length t.entries_rev
let skipped t = t.skipped
let events t = List.rev_map (fun e -> e.e_event) t.entries_rev

let track loader =
  Memory.set_dirty_tracking (Machine.memory (Loader.machine loader)) true

let take t ~event ~nobjs loader recorder =
  let mem = Machine.memory (Loader.machine loader) in
  match Fault.check p_store with
  | () ->
      let pages = Memory.take_dirty mem in
      t.entries_rev <-
        {
          e_event = event;
          e_nobjs = nobjs;
          e_loader = Loader.snapshot loader;
          e_recorder = Recorder.snapshot recorder;
          e_pages = pages;
        }
        :: t.entries_rev;
      Metrics.incr m_taken;
      Metrics.add m_pages (List.length pages)
  | exception Fault.Injected _ ->
      (* Fallback: skip this checkpoint. The dirty set is NOT drained, so
         the pages keep accumulating and the next successful checkpoint
         subsumes this one's delta — time travel merely re-executes from
         further back. [Fault.Killed] propagates. *)
      t.skipped <- t.skipped + 1;
      Metrics.incr m_skipped

(* Deepest checkpoint strictly before [event]; [entries_rev] is
   descending. Strict: a checkpoint stamped exactly [event] sits at a
   slice boundary, but the canonical machine-at-event-[event] (what a
   step-0 {!seek} reaches) is the {e first} instruction boundary where
   the counter got there — possibly several instructions earlier, when
   the counter plateaus. Restarting from the previous entry and seeking
   forward reproduces the canonical state; restarting from the
   equal-stamped entry would not. *)
let nearest t ~event =
  let rec pick = function
    | [] -> None
    | e :: rest -> if e.e_event < event then Some e else pick rest
  in
  pick t.entries_rev

type restored = {
  rs_loader : Loader.t;
  rs_counters : Recorder.counters;
  rs_recorder : Recorder.t;
}

let restore t ~event ~load =
  match nearest t ~event with
  | None -> None
  | Some target ->
      let loader = load () in
      let mem = Machine.memory (Loader.machine loader) in
      (* Overlay the page deltas oldest-first up to and including the
         target (physical identity — timestamps need not be distinct). *)
      let rec overlay = function
        | [] -> ()
        | e :: rest ->
            List.iter
              (fun (page, bytes) -> Memory.overlay_page mem ~page bytes)
              e.e_pages;
            if e != target then overlay rest
      in
      overlay (List.rev t.entries_rev);
      Loader.restore loader target.e_loader;
      let counters =
        { Recorder.c_events = target.e_event; c_objs = target.e_nobjs }
      in
      let recorder =
        Recorder.reattach (Recorder.counting_sink counters) loader
          target.e_recorder
      in
      Metrics.incr m_restores;
      Some { rs_loader = loader; rs_counters = counters; rs_recorder = recorder }

let seek ?(limit = max_int) loader counters ~event =
  let machine = Loader.machine loader in
  let steps = ref 0 in
  let stop = ref None in
  while
    !stop = None && counters.Recorder.c_events < event && !steps < limit
  do
    incr steps;
    stop := Machine.step machine
  done;
  !stop

(* --- state fingerprint (equivalence oracle for tests and bench) --- *)

let is_zero_page bytes =
  let n = Bytes.length bytes in
  let rec go i = i >= n || (Bytes.unsafe_get bytes i = '\000' && go (i + 1)) in
  go 0

let state_digest loader (counters : Recorder.counters) =
  let machine = Loader.machine loader in
  let al = Loader.allocator loader in
  let buf = Buffer.create 4096 in
  (* Machine snapshots are plain data (ints, arrays, intervals), so their
     Marshal bytes are deterministic. The allocator is fingerprinted via
     its sorted live set, not its hashtable (bucket layout depends on
     insertion history). *)
  Buffer.add_string buf (Marshal.to_string (Machine.snapshot machine) []);
  List.iter
    (fun (a, s) -> Buffer.add_string buf (Printf.sprintf "B%d:%d;" a s))
    (Allocator.live_blocks al);
  Buffer.add_string buf (Printf.sprintf "F%d;" (Allocator.free_bytes al));
  Buffer.add_string buf (Loader.output loader);
  Buffer.add_string buf
    (Printf.sprintf "E%d,O%d;" counters.Recorder.c_events counters.Recorder.c_objs);
  (* All-zero pages are skipped: an absent page reads as zeroes, and the
     restore path may materialize a different page set than a replay. *)
  Memory.fold_pages (Machine.memory machine) ~init:() ~f:(fun () idx bytes ->
      if not (is_zero_page bytes) then begin
        Buffer.add_string buf (Printf.sprintf "P%d:" idx);
        Buffer.add_bytes buf bytes
      end);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* --- checkpointed run driver --- *)

let default_slice = 262_144

(* Hooks run mid-instruction, so a machine snapshot is only consistent
   between instructions: drive the run in resumable fuel slices and
   sample the event count at slice boundaries. Cumulative machine
   counters make the final run_result identical to a single big run of
   the same total fuel. With [fuel] absent the run is unbounded (each
   slice gets fresh fuel) — pass an explicit total to mirror a bounded
   batch run. *)
let run_with_checkpoints ?(slice = default_slice) ?fuel ~every ~events ~nobjs
    t loader recorder =
  if every <= 0 then invalid_arg "Checkpoint.run_with_checkpoints: every <= 0";
  if slice <= 0 then invalid_arg "Checkpoint.run_with_checkpoints: slice <= 0";
  track loader;
  let remaining = ref fuel in
  let last = ref 0 in
  let rec loop () =
    let this = match !remaining with None -> slice | Some f -> min slice f in
    let res = Loader.run ~fuel:this loader in
    (match !remaining with
    | Some f -> remaining := Some (f - this)
    | None -> ());
    match res.Loader.status with
    | Machine.Out_of_fuel
      when (match !remaining with None -> true | Some f -> f > 0) ->
        let ev = events () in
        if ev - !last >= every then begin
          take t ~event:ev ~nobjs:(nobjs ()) loader recorder;
          last := ev
        end;
        loop ()
    | _ -> res
  in
  loop ()

(* --- serialization (Trace_cache storage) --- *)

let codec_version = "EBPK1"

let encode t =
  codec_version ^ Marshal.to_string (List.rev t.entries_rev, t.skipped) []

let decode ?len s =
  let len = Option.value len ~default:(String.length s) in
  if len < 0 || len > String.length s then
    invalid_arg "Checkpoint.decode: bad length";
  let n = String.length codec_version in
  if len < n || String.sub s 0 n <> codec_version then
    Error "checkpoint chain: bad magic"
  else
    (* The marshalled chain must fill [len] exactly: that is what lets a
       sealed cache image decode in place, trailer and all. *)
    match
      if len - n < Marshal.header_size
         || n + Marshal.total_size (Bytes.unsafe_of_string s) n <> len
      then raise Exit;
      (Marshal.from_string s n : entry list * int)
    with
    | entries, skipped -> Ok { entries_rev = List.rev entries; skipped }
    | exception _ -> Error "checkpoint chain: malformed"
