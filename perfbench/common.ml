(* Shared plumbing for the three workloads: clocks, the host-speed meter,
   order statistics, per-layer timing tables, scratch directories, and the
   result record. *)

let now () = Unix.gettimeofday ()

(* [timed f] is [(f (), elapsed ms)]. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, (now () -. t0) *. 1000.0)

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("ebpbench: " ^ m); exit 2) fmt

(* --- processor time --- *)

(* The timings the end-to-end metrics report start from processor time,
   not wall time. On a virtual machine that shares its host, wall time
   also counts the time the host gives this machine's CPUs to other guests
   (steal), waits for the disk, and waits behind other processes. The
   kernel leaves steal out of a task's processor time. *)

(* Processor time this process has used so far, in ms: user + system over
   all its threads (getrusage). *)
let cpu_now () = Sys.time () *. 1000.0

(* One timed operation. *)
type sample = { wall_ms : float; cpu_ms : float }

let walls = List.map (fun s -> s.wall_ms)
let cpus = List.map (fun s -> s.cpu_ms)

(* "1.23, 4.56" for a list of ms, in seconds. *)
let seconds_list xs =
  String.concat ", " (List.map (fun ms -> Printf.sprintf "%.2f" (ms /. 1000.0)) xs)

(* Before a timed operation: collect what earlier ones left on the heap,
   so that each starts from about the same heap and none pays for
   another's garbage. *)
let settle () = Gc.full_major ()

(* [cpu_timed f] is [(f (), wall ms, processor ms)]. *)
let cpu_timed f =
  let t0 = now () and c0 = cpu_now () in
  let r = f () in
  (r, (now () -. t0) *. 1000.0, cpu_now () -. c0)

(* Processor time used so far by the live threads of process [pid], in ms
   (Linux /proc/<pid>/task/<tid>/schedstat, whose first field is
   nanoseconds on a CPU). *)
let proc_cpu_ms pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir dir with
  | exception Sys_error e -> die "cannot read the threads of %d: %s" pid e
  | tids ->
      Array.fold_left
        (fun acc tid ->
          let file = Filename.concat (Filename.concat dir tid) "schedstat" in
          match In_channel.with_open_text file In_channel.input_all with
          | exception Sys_error _ -> acc (* the thread has just ended *)
          | text -> (
              match Scanf.sscanf_opt text "%Ld" Fun.id with
              | Some ns -> acc +. (Int64.to_float ns /. 1e6)
              | None -> die "unreadable %s" file))
        0.0 tids

(* The host's steal so far, summed over this machine's CPUs, in ms
   (/proc/stat, whose eighth field counts it in 1/100 s); 0 where the
   kernel does not report it. Printed beside the figures so that a run on
   a busy host can be told apart. *)
let steal_ms () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | exception Sys_error _ -> 0.0
  | None -> 0.0
  | Some line -> (
      match
        Scanf.sscanf_opt line "cpu %_d %_d %_d %_d %_d %_d %_d %d" Fun.id
      with
      | Some ticks -> float_of_int ticks *. 10.0
      | None -> 0.0)

(* The machine's CPUs (the "cpuN" lines of /proc/stat), whatever CPUs this
   process may run on. *)
let machine_cpus () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_all with
  | exception Sys_error _ -> Domain.recommended_domain_count ()
  | text ->
      List.length
        (List.filter
           (fun l -> String.length l > 3 && String.sub l 0 3 = "cpu" && l.[3] <> ' ')
           (String.split_on_char '\n' text))

(* A note on the steal over a measured span that started at wall time [t0]
   with steal [s0]: the share of the machine's CPU time the host took. *)
let steal_note ~t0 ~s0 =
  let wall = (now () -. t0) *. 1000.0 in
  let ncpu = float_of_int (machine_cpus ()) in
  Printf.sprintf "host steal             %.1f%% of the CPU time over the measured part"
    (100.0 *. (steal_ms () -. s0) /. Float.max 1.0 (wall *. ncpu))

(* --- host speed --- *)

(* The host's speed drifts: on the shared 2-vCPU virtual machine the
   benchmark was built on, the same run of the same code took from one to
   two times as much processor time within an hour, and up to a quarter
   more from one record to the next within a run, with no steal. The
   slowdown hit the workloads, and compiling the set-up's programs, while
   a loop of register arithmetic kept its speed. So while a run measures,
   a child process times a fixed unit of reference work over and over, and
   each timing is scaled to the speed at which that work takes
   [reference_ms]: timing / reference median over the timing's window x
   [reference_ms]. The reference work uses only the standard library, so
   no change to the program under test moves it. *)

module SMap = Map.Make (String)

let blit_src = lazy (Bytes.make (8 lsl 20) 'x')
let blit_dst = lazy (Bytes.create (8 lsl 20))

(* Work like the workloads' own, in three parts: a small string map built,
   sorted and probed (small blocks that die young, as in a compiler); a
   hash table of 5000 string keys built and probed (a working set of a few
   hundred KB, as in an index build); and 8 MB copied (memory bandwidth,
   as in encoding a trace). Together they take about 10 ms. *)
let reference_work () =
  let m = ref SMap.empty in
  for i = 0 to 1999 do
    m := SMap.add (string_of_int (i * 7919)) i !m
  done;
  let l = List.sort compare (List.init 2000 (fun i -> (i * 7919) land 4095)) in
  let s =
    List.fold_left
      (fun acc x ->
        match SMap.find_opt (string_of_int (x mod 2000 * 7919)) !m with
        | Some v -> acc + v
        | None -> acc)
      0 l
  in
  let h = Hashtbl.create 16 in
  for i = 0 to 4999 do
    Hashtbl.replace h (string_of_int (i * 7919)) i
  done;
  let t = ref s in
  for i = 0 to 9999 do
    match Hashtbl.find_opt h (string_of_int (i * 7919)) with
    | Some v -> t := !t + v
    | None -> ()
  done;
  let src = Lazy.force blit_src and dst = Lazy.force blit_dst in
  Bytes.blit src 0 dst 0 (Bytes.length src);
  ignore (Sys.opaque_identity (!t + Bytes.length dst))

(* About what the reference work took on that machine at its fastest. *)
let reference_ms = 6.0

(* --- order statistics --- *)

let sorted xs = List.sort Float.compare xs

(* Linear interpolation between closest ranks, as Python's
   statistics.quantiles(method="inclusive"). *)
let quantile xs q =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i >= n - 1 then a.(n - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs))

(* The highest of a fixed ladder of percentiles that still has at least
   ten samples above it; [None] below 100 samples. *)
let tail xs =
  let n = List.length xs in
  List.find_map
    (fun p ->
      let beyond = int_of_float (float_of_int n *. (1.0 -. (p /. 100.0))) in
      if beyond >= 10 then Some (p, quantile xs (p /. 100.0), beyond) else None)
    [ 99.9; 99.0; 95.0; 90.0 ]

(* [tail xs], or the 90th percentile when there are too few samples for
   ten beyond it; with a label naming the statistic and its count. *)
let tail_or_p90 xs =
  match tail xs with
  | Some (p, v, beyond) -> (v, Printf.sprintf "p%g, %d beyond" p beyond)
  | None -> (quantile xs 0.9, Printf.sprintf "p90 of %d" (List.length xs))

(* --- the speed meter --- *)

(* The child's loop (this executable run with --reference-probe): five
   units of reference work, then up to 100 ms of waiting for a query on
   stdin, which it answers with the median processor time of the units
   since the last query. It ends when stdin closes. It keeps about a tenth
   of one CPU busy. *)
let probe_main () =
  let buf = Bytes.create 16 and units = ref [] in
  ignore (Lazy.force blit_src, Lazy.force blit_dst);
  let rec loop () =
    let (), _, ms = cpu_timed reference_work in
    units := ms :: !units;
    match Unix.select [ Unix.stdin ] [] [] 0.1 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | [], _, _ -> loop ()
    | _ -> (
        match Unix.read Unix.stdin buf 0 (Bytes.length buf) with
        | 0 | (exception Unix.Unix_error _) -> exit 0
        | _ ->
            Printf.printf "%.17g\n%!" (median !units);
            units := [];
            loop ())
  in
  loop ()

(* Samples are grouped into windows of at least a second (or one sample,
   if it is longer); each window's samples are scaled by the reference
   work's median over that window. *)
type meter = {
  to_probe : out_channel;
  from_probe : in_channel;
  stop_probe : unit -> unit;
  mutable opened : float;  (** when the current window opened *)
  mutable pending : (string * float) list;  (** its samples, by class *)
  mutable scaled : (string * float) list;
  mutable refs : float list;  (** the reference median of each window *)
}

let meter () =
  let exe = Sys.executable_name in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe; "--reference-probe" |] in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  let to_probe = Unix.out_channel_of_descr in_w in
  let from_probe = Unix.in_channel_of_descr out_r in
  let stopped = ref false in
  let stop_probe () =
    if not !stopped then begin
      stopped := true;
      close_out_noerr to_probe;
      close_in_noerr from_probe;
      ignore (Unix.waitpid [] pid)
    end
  in
  at_exit stop_probe;
  { to_probe; from_probe; stop_probe; opened = now (); pending = []; scaled = [];
    refs = [] }

let query mt =
  output_char mt.to_probe 'q';
  flush mt.to_probe;
  match float_of_string_opt (input_line mt.from_probe) with
  | Some r -> r
  | None | (exception End_of_file) -> die "the reference probe gave no answer"

(* Before a sample: if no sample waits in the current window, open it
   afresh, so that it covers only samples and what lies between them. *)
let start_sample mt =
  if mt.pending = [] then begin
    ignore (query mt);
    mt.opened <- now ()
  end

let close_window mt =
  if mt.pending <> [] then begin
    let r = query mt in
    mt.refs <- r :: mt.refs;
    mt.scaled <-
      List.map (fun (cls, ms) -> (cls, ms /. r *. reference_ms)) mt.pending @ mt.scaled;
    mt.pending <- []
  end

(* After a sample of class [cls] that took [ms]. *)
let record_sample mt cls ms =
  mt.pending <- (cls, ms) :: mt.pending;
  if now () -. mt.opened >= 1.0 then close_window mt

(* The scaled samples of class [cls], in the order they were taken. *)
let scaled mt cls =
  close_window mt;
  List.rev (List.filter_map (fun (c, ms) -> if c = cls then Some ms else None) mt.scaled)

(* [record_sample] around [f]'s processor time (or wall time, with [~wall]). *)
let measured ?(wall = false) mt cls f =
  start_sample mt;
  let r, w, c = cpu_timed f in
  record_sample mt cls (if wall then w else c);
  (r, { wall_ms = w; cpu_ms = c })

let speed_note mt =
  let r = median mt.refs in
  Printf.sprintf
    "host speed             reference work %.3f ms (median of %d windows); timings x %.3f"
    r (List.length mt.refs) (reference_ms /. r)

(* --- per-layer tables --- *)

(* An ordered table of named rows, each accumulating milliseconds (or any
   other additive quantity) across calls. *)
module Rows = struct
  type t = { mutable order : string list; cells : (string, float) Hashtbl.t }

  let create () = { order = []; cells = Hashtbl.create 32 }

  let add t name v =
    match Hashtbl.find_opt t.cells name with
    | Some old -> Hashtbl.replace t.cells name (old +. v)
    | None ->
        t.order <- t.order @ [ name ];
        Hashtbl.replace t.cells name v

  let get t name = Option.value (Hashtbl.find_opt t.cells name) ~default:0.0

  (* Time [f] into row [name]. *)
  let time t name f =
    let r, ms = timed f in
    add t name ms;
    r

  let names t = t.order
  let sum t = List.fold_left (fun acc n -> acc +. get t n) 0.0 t.order
end

(* --- GC accounting over a span of work --- *)

type gc_mark = { minor_words : float; major : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major = s.Gc.major_collections }

(* (minor MB allocated, major collections) since [m]. *)
let gc_since m =
  let n = gc_mark () in
  ( (n.minor_words -. m.minor_words) *. float_of_int (Sys.word_size / 8)
    /. 1048576.0,
    n.major - m.major )

(* Start a process's peak resident set afresh from its current one
   (Linux 4.0 and later). *)
let reset_peak_rss pid =
  let file = Printf.sprintf "/proc/%d/clear_refs" pid in
  try Out_channel.with_open_text file (fun oc -> output_string oc "5")
  with Sys_error e -> die "cannot reset the peak resident set of %d: %s" pid e

(* Peak resident set of a process (Linux VmHWM), in MB. *)
let peak_rss_mb pid =
  let file = Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] ->
              Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                  float_of_int kb /. 1024.0)
          | _ -> None)
        (String.split_on_char '\n' text)
      |> Option.value ~default:nan

(* --- scratch space, always inside the working directory --- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let mkdir_p path =
  let rec go p =
    if p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

let scratch_root = ".perfbench-tmp"

(* A private directory for one run, removed at exit whatever happens. *)
let scratch_dir () =
  let dir = Filename.concat scratch_root (string_of_int (Unix.getpid ())) in
  rm_rf dir;
  mkdir_p dir;
  at_exit (fun () ->
      rm_rf dir;
      try Unix.rmdir scratch_root with Unix.Unix_error _ -> ());
  dir

let dir_bytes dir =
  Array.fold_left
    (fun acc e ->
      match Unix.stat (Filename.concat dir e) with
      | { Unix.st_kind = Unix.S_REG; st_size; _ } -> acc + st_size
      | _ | (exception Unix.Unix_error _) -> acc)
    0 (Sys.readdir dir)

(* --- seeded synthetic programs --- *)

(* A generated MiniC workload. Knobs fix the program's size, so every seed
   yields about the same amount of work; the seed only varies content. *)
let synthetic ~name ~knobs ~seed =
  let source =
    Ebp_core.Fuzz.render (Ebp_core.Fuzz.generate_knobbed ~knobs ~seed)
  in
  {
    Ebp_workloads.Workload.name;
    description = "seeded synthetic program";
    paper_analogue = "none";
    source;
    seed;
    expected_output = None;
    event_hint = None;
  }

(* How often a cheap set-up (a few milliseconds) is repeated for the
   median reported as setup_s. The host's speed drifts over seconds, so
   the median of 25 repeats moved by a fifth between runs of one seed;
   that of 200 repeats, about 2 s of set-up, by well under a tenth. *)
let setup_repeats = 200

(* --- the result of one run --- *)

type metric = { name : string; value : float; unit_ : string }

type outcome = {
  attempted : int;  (** operations and checks *)
  failures : string list;  (** one reason per failed operation or check *)
  metrics : metric list;
      (** end-to-end with --trace 0, per-layer with --trace 1 *)
  notes : string list;  (** human-readable lines printed before the JSON *)
  samples : (string * int) list;  (** sample count behind each statistic *)
}

let m name unit_ value = { name; value; unit_ }

(* A failed gate is a counted failure and a printed reason. *)
type gates = { mutable attempted : int; mutable failures : string list }

let gates () = { attempted = 0; failures = [] }

(* Operations that ran to completion without a separate check. *)
let attempt g n = g.attempted <- g.attempted + n

let gate g ok what =
  g.attempted <- g.attempted + 1;
  if not ok then g.failures <- what :: g.failures

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else die "non-finite metric value %f" v
