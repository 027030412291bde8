(* Tests for the fault-injection harness (Ebp_util.Fault) and the
   corruption hardening it exercises: CRC-32 sealing of trace-cache
   entries, detection of arbitrary bit flips and truncations, quarantine
   semantics, store retries, and the cache-directory integrity scan. *)

module Fault = Ebp_util.Fault
module Crc32 = Ebp_util.Crc32
module Interval = Ebp_util.Interval
module Object_desc = Ebp_trace.Object_desc
module Trace = Ebp_trace.Trace
module Write_index = Ebp_trace.Write_index
module Trace_cache = Ebp_trace.Trace_cache

let iv lo hi = Interval.make ~lo ~hi

(* Every test leaves the global fault registry disabled. *)
let with_rules ?seed rules f =
  Fault.configure ?seed rules;
  Fun.protect ~finally:Fault.reset f

let rule pattern trigger action = { Fault.pattern; trigger; action }

(* --- Crc32 --- *)

(* The textbook bytewise CRC-32, bit by bit: the reference the sliced
   implementation must agree with on every alignment and length. *)
let reference_crc32 s ~pos ~len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code s.[i];
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

let test_crc32_known_values () =
  Alcotest.(check int) "empty" 0 (Crc32.string "");
  (* The standard CRC-32 check value. *)
  Alcotest.(check int) "123456789" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "sub window agrees" (Crc32.string "456")
    (Crc32.sub "123456789" ~pos:3 ~len:3);
  Alcotest.check_raises "bad window" (Invalid_argument "Crc32.sub") (fun () ->
      ignore (Crc32.sub "abc" ~pos:2 ~len:2));
  (* Every alignment (pos 0-15) and every length across the 8-byte
     stride boundaries (0-64), over seeded bytes. *)
  let rng = Random.State.make [| 0xC4C |] in
  let buf = String.init 96 (fun _ -> Char.chr (Random.State.int rng 256)) in
  for pos = 0 to 15 do
    for len = 0 to 64 do
      if Crc32.sub buf ~pos ~len <> reference_crc32 buf ~pos ~len then
        Alcotest.failf "Crc32.sub pos=%d len=%d differs from bytewise" pos len
    done
  done;
  let big =
    String.init (1 lsl 20) (fun _ -> Char.chr (Random.State.int rng 256))
  in
  Alcotest.(check int) "1 MiB agrees with bytewise"
    (reference_crc32 big ~pos:0 ~len:(String.length big))
    (Crc32.string big);
  (* [update] chained over random splits equals one [sub]. *)
  let whole = Crc32.string big in
  for _ = 1 to 20 do
    let crc = ref 0 and pos = ref 0 in
    while !pos < String.length big do
      let len =
        min (String.length big - !pos) (Random.State.int rng 70000)
      in
      crc := Crc32.update !crc big ~pos:!pos ~len;
      pos := !pos + len
    done;
    Alcotest.(check int) "chained update = one sub" whole !crc
  done

let test_crc32_sensitivity () =
  let base = Crc32.string "the quick brown fox" in
  Alcotest.(check bool) "one-byte change detected" false
    (base = Crc32.string "the quick brown foy");
  Alcotest.(check bool) "truncation detected" false
    (base = Crc32.string "the quick brown fo")

(* --- Fault primitives --- *)

let test_fault_disabled_is_noop () =
  let p = Fault.point "t.disabled" in
  Fault.reset ();
  Alcotest.(check bool) "inactive" false (Fault.active ());
  Alcotest.(check bool) "no action" true (Fault.fires p = None);
  Fault.check p;
  Alcotest.(check string) "mangle passes through" "data" (Fault.mangle p "data")

let test_fault_nth_fires_exactly_once () =
  let p = Fault.point "t.nth" in
  with_rules [ rule "t.nth" (Fault.Nth 2) Fault.Fail ] (fun () ->
      Fault.check p;
      Alcotest.check_raises "second evaluation fires"
        (Fault.Injected "t.nth") (fun () -> Fault.check p);
      Fault.check p)

let test_fault_glob_patterns () =
  let inside = Fault.point "t.glob.inner" in
  let outside = Fault.point "t.other" in
  with_rules [ rule "t.glob.*" Fault.Always Fault.Fail ] (fun () ->
      Alcotest.(check bool) "prefix glob matches" true
        (Fault.fires inside <> None);
      Alcotest.(check bool) "non-matching point untouched" true
        (Fault.fires outside = None));
  with_rules [ rule "*" Fault.Always Fault.Fail ] (fun () ->
      Alcotest.(check bool) "bare star matches everything" true
        (Fault.fires outside <> None))

let test_fault_probability_deterministic () =
  let p = Fault.point "t.prob" in
  let count () =
    let n = ref 0 in
    for _ = 1 to 200 do
      if Fault.fires p <> None then incr n
    done;
    !n
  in
  let a =
    with_rules ~seed:11 [ rule "t.prob" (Fault.Probability 0.5) Fault.Fail ] count
  in
  let b =
    with_rules ~seed:11 [ rule "t.prob" (Fault.Probability 0.5) Fault.Fail ] count
  in
  Alcotest.(check int) "same seed, same firings" a b;
  Alcotest.(check bool) "roughly half fire" true (a > 50 && a < 150)

let test_fault_mangle_bitflip () =
  let p = Fault.point "t.flip" in
  with_rules [ rule "t.flip" Fault.Always Fault.Bit_flip ] (fun () ->
      let data = "hello, fault world" in
      let mangled = Fault.mangle p data in
      Alcotest.(check int) "length preserved" (String.length data)
        (String.length mangled);
      let flipped_bits = ref 0 in
      String.iteri
        (fun i c ->
          let x = Char.code c lxor Char.code mangled.[i] in
          for b = 0 to 7 do
            if x land (1 lsl b) <> 0 then incr flipped_bits
          done)
        data;
      Alcotest.(check int) "exactly one bit flipped" 1 !flipped_bits)

let test_fault_mangle_truncate () =
  let p = Fault.point "t.trunc" in
  with_rules [ rule "t.trunc" Fault.Always Fault.Truncate ] (fun () ->
      let data = "0123456789abcdef" in
      let mangled = Fault.mangle p data in
      Alcotest.(check bool) "strictly shorter" true
        (String.length mangled < String.length data);
      Alcotest.(check string) "is a prefix"
        (String.sub data 0 (String.length mangled))
        mangled)

let test_fault_kill_raises_killed () =
  let p = Fault.point "t.kill" in
  with_rules [ rule "t.kill" Fault.Always Fault.Kill ] (fun () ->
      Alcotest.check_raises "check raises Killed" (Fault.Killed "t.kill")
        (fun () -> Fault.check p);
      Alcotest.check_raises "mangle raises Killed" (Fault.Killed "t.kill")
        (fun () -> ignore (Fault.mangle p "data")))

let test_fault_configure_rebinds_and_resets () =
  let p = Fault.point "t.rebind" in
  with_rules [ rule "t.rebind" (Fault.Nth 1) Fault.Fail ] (fun () ->
      Alcotest.check_raises "first eval fires" (Fault.Injected "t.rebind")
        (fun () -> Fault.check p);
      (* Reconfiguring resets evaluation counts: Nth 1 fires again. *)
      Fault.configure [ rule "t.rebind" (Fault.Nth 1) Fault.Fail ];
      Alcotest.check_raises "fires again after reconfigure"
        (Fault.Injected "t.rebind") (fun () -> Fault.check p));
  Alcotest.(check bool) "reset disables" false (Fault.active ())

(* --- spec parsing --- *)

let test_spec_parsing () =
  (match Fault.parse_spec "seed=5; trace_cache.*:p=0.25:bitflip, loader.run:nth=3:kill" with
  | Error msg -> Alcotest.fail msg
  | Ok (seed, rules) ->
      Alcotest.(check int) "seed" 5 seed;
      Alcotest.(check int) "two rules" 2 (List.length rules);
      match rules with
      | [ a; b ] ->
          Alcotest.(check string) "first pattern" "trace_cache.*" a.Fault.pattern;
          Alcotest.(check bool) "first trigger" true
            (a.Fault.trigger = Fault.Probability 0.25);
          Alcotest.(check bool) "first action" true (a.Fault.action = Fault.Bit_flip);
          Alcotest.(check bool) "second rule" true
            (b.Fault.trigger = Fault.Nth 3 && b.Fault.action = Fault.Kill)
      | _ -> Alcotest.fail "rule shape");
  (match Fault.parse_spec "a:always:fail" with
  | Ok (0, [ r ]) ->
      Alcotest.(check bool) "always/fail" true
        (r.Fault.trigger = Fault.Always && r.Fault.action = Fault.Fail)
  | _ -> Alcotest.fail "single clause");
  List.iter
    (fun bad ->
      match Fault.parse_spec bad with
      | Ok _ -> Alcotest.failf "accepted bad spec %S" bad
      | Error _ -> ())
    [
      "nonsense"; "a:b"; "a:nth=0:fail"; "a:nth=x:fail"; "a:p=2:fail";
      "a:p=x:fail"; "a:always:explode"; "seed=abc"; "a:b:c:d";
    ]

(* --- sealed cache entries --- *)

let small_trace () =
  let b = Trace.Builder.create () in
  let g = Object_desc.Global { var = "g" } in
  let h = Object_desc.Heap { context = [ "main" ]; seq = 1 } in
  Trace.Builder.add_install b g (iv 100 103);
  for i = 0 to 19 do
    Trace.Builder.add_write b (iv (100 + (4 * (i mod 3))) (103 + (4 * (i mod 3)))) ~pc:i
  done;
  Trace.Builder.add_install b h (iv 4096 4127);
  Trace.Builder.add_write b (iv 4100 4103) ~pc:77;
  Trace.Builder.add_remove b h (iv 4096 4127);
  Trace.Builder.add_remove b g (iv 100 103);
  Trace.Builder.finish b

let with_temp_cache_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ebp-fault-test-%d-%d" (Unix.getpid ())
         (Random.int 100000))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let store_exn ~dir ~key trace =
  match Trace_cache.store ~dir ~key trace with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("store: " ^ msg)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_raw path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

(* An installed rule set that matches no point: it fires nothing, but
   [Fault.active] makes every trace lookup take the CRC-verified load
   instead of the structural-only mmap fast path. *)
let with_verified_loads f =
  with_rules [ rule "test.no_such_point" Fault.Always Fault.Fail ] f

(* Any single bit flip anywhere in a stored entry — header, meta, payload,
   or trailer — must read as a miss (CRC-32 detects all single-bit
   errors), never as a decode of different events. The verified load is
   the one the seal guards: the mmap fast path trusts the payload CRC. *)
let test_every_bitflip_detected () =
  with_temp_cache_dir @@ fun dir ->
  with_verified_loads (fun () ->
      let key = Trace_cache.make_key ~name:"flip" ~source:"s" ~seed:1 () in
      store_exn ~dir ~key (small_trace ());
      let path = Filename.concat dir (key ^ ".trace") in
      let original = read_file path in
      let len = String.length original in
      let step = max 1 (len / 96) in
      let i = ref 0 in
      while !i < len do
        let bit = !i mod 8 in
        let b = Bytes.of_string original in
        Bytes.set b !i
          (Char.chr (Char.code (Bytes.get b !i) lxor (1 lsl bit)));
        write_raw path (Bytes.unsafe_to_string b);
        (match Trace_cache.lookup ~dir ~key with
        | None -> ()
        | Some _ -> Alcotest.failf "flip at byte %d/%d not detected" !i len);
        (* The corrupt file was quarantined; restore the entry. *)
        let corpse = path ^ ".corrupt" in
        if Sys.file_exists corpse then Sys.remove corpse;
        write_raw path original;
        i := !i + step
      done;
      Alcotest.(check bool) "pristine entry still hits" true
        (Trace_cache.lookup ~dir ~key <> None))

let test_every_truncation_detected () =
  with_temp_cache_dir @@ fun dir ->
  with_verified_loads (fun () ->
      let key = Trace_cache.make_key ~name:"cut" ~source:"s" ~seed:2 () in
      store_exn ~dir ~key (small_trace ());
      let path = Filename.concat dir (key ^ ".trace") in
      let original = read_file path in
      let len = String.length original in
      let step = max 1 (len / 64) in
      let cut = ref 0 in
      while !cut < len do
        write_raw path (String.sub original 0 !cut);
        (match Trace_cache.lookup ~dir ~key with
        | None -> ()
        | Some _ -> Alcotest.failf "truncation to %d/%d not detected" !cut len);
        let corpse = path ^ ".corrupt" in
        if Sys.file_exists corpse then Sys.remove corpse;
        write_raw path original;
        cut := !cut + step
      done)

let test_quarantine_semantics () =
  with_temp_cache_dir @@ fun dir ->
  with_verified_loads (fun () ->
      let key = Trace_cache.make_key ~name:"q" ~source:"s" ~seed:3 () in
      let trace = small_trace () in
      store_exn ~dir ~key trace;
      let path = Filename.concat dir (key ^ ".trace") in
      let data = read_file path in
      write_raw path (String.sub data 0 (String.length data - 4));
      let logged = ref [] in
      Trace_cache.set_quarantine_log (fun ~file ~reason ->
          logged := (file, reason) :: !logged);
      Fun.protect
        ~finally:(fun () ->
          Trace_cache.set_quarantine_log (fun ~file:_ ~reason:_ -> ()))
        (fun () ->
          Alcotest.(check bool) "corrupt entry is a miss" true
            (Trace_cache.lookup ~dir ~key = None);
          Alcotest.(check bool) "quarantine hook fired" true
            (List.mem_assoc (key ^ ".trace") !logged);
          Alcotest.(check bool) "renamed aside" true
            (Sys.file_exists (path ^ ".corrupt") && not (Sys.file_exists path));
          let kinds =
            List.map
              (fun e -> e.Trace_cache.entry_kind)
              (Trace_cache.entries ~dir)
          in
          Alcotest.(check bool) "classified as corrupt" true
            (List.mem Trace_cache.Corrupt_entry kinds);
          (* Graceful fallback: re-storing under the same key recovers. *)
          store_exn ~dir ~key trace;
          Alcotest.(check bool) "re-recorded entry hits" true
            (Trace_cache.lookup ~dir ~key <> None);
          (* GC reclaims the corpse before touching live entries. *)
          let removed, _ = Trace_cache.gc ~dir ~max_bytes:max_int in
          Alcotest.(check int) "gc removed the corpse" 1 removed;
          Alcotest.(check bool) "live entry survived gc" true
            (Trace_cache.lookup ~dir ~key <> None)))

let test_store_retries_transient_fault () =
  with_temp_cache_dir (fun dir ->
      let key = Trace_cache.make_key ~name:"retry" ~source:"s" ~seed:4 () in
      with_rules
        [ rule "trace_cache.store.io" (Fault.Nth 1) Fault.Fail ]
        (fun () -> store_exn ~dir ~key (small_trace ()));
      Alcotest.(check bool) "entry landed despite the fault" true
        (Trace_cache.lookup ~dir ~key <> None))

let test_store_gives_up_on_persistent_fault () =
  with_temp_cache_dir (fun dir ->
      let key = Trace_cache.make_key ~name:"give-up" ~source:"s" ~seed:5 () in
      with_rules
        [ rule "trace_cache.store.io" Fault.Always Fault.Fail ]
        (fun () ->
          match Trace_cache.store ~dir ~key (small_trace ()) with
          | Ok () -> Alcotest.fail "store succeeded under a persistent fault"
          | Error msg ->
              Alcotest.(check bool) "error names the point" true
                (String.length msg > 0)))

let test_lookup_transient_fault_is_plain_miss () =
  with_temp_cache_dir (fun dir ->
      let key = Trace_cache.make_key ~name:"transient" ~source:"s" ~seed:6 () in
      store_exn ~dir ~key (small_trace ());
      with_rules
        [ rule "trace_cache.lookup.data" (Fault.Nth 1) Fault.Fail ]
        (fun () ->
          Alcotest.(check bool) "injected read fault is a miss" true
            (Trace_cache.lookup ~dir ~key = None);
          (* A transient fault must not destroy the (intact) entry. *)
          Alcotest.(check bool) "entry not quarantined" true
            (Sys.file_exists (Filename.concat dir (key ^ ".trace")));
          Alcotest.(check bool) "next lookup hits" true
            (Trace_cache.lookup ~dir ~key <> None));
      (* The mapping's own transient fault point behaves the same: a
         plain miss (the caller re-records), no quarantine. *)
      with_rules
        [ rule "trace.codec.map" (Fault.Nth 1) Fault.Fail ]
        (fun () ->
          Alcotest.(check bool) "injected map fault is a miss" true
            (Trace_cache.lookup ~dir ~key = None);
          Alcotest.(check bool) "entry not quarantined" true
            (Sys.file_exists (Filename.concat dir (key ^ ".trace")));
          Alcotest.(check bool) "next lookup hits" true
            (Trace_cache.lookup ~dir ~key <> None));
      (* Outside fault injection the hit is a mapping. *)
      match Trace_cache.lookup ~dir ~key with
      | Some (t, _) ->
          Alcotest.(check bool) "warm hit is mapped" true
            (Ebp_trace.Trace.is_mapped t)
      | None -> Alcotest.fail "intact entry should hit")

let test_mangled_store_detected_on_lookup () =
  (* Corruption injected while writing (bit flip after sealing) must land
     on disk and then be caught on the way back in. While fault injection
     is active, lookups verify the full payload CRC (the structural-only
     mmap fast path is for production loads, where [ebp cache verify] is
     the backstop), so the lookup quarantines the mangled entry and
     misses. *)
  with_temp_cache_dir (fun dir ->
      let key = Trace_cache.make_key ~name:"mangled" ~source:"s" ~seed:7 () in
      with_rules
        [ rule "trace_cache.store.data" Fault.Always Fault.Bit_flip ]
        (fun () ->
          store_exn ~dir ~key (small_trace ());
          Alcotest.(check bool) "mangled entry is a miss, not bad data" true
            (Trace_cache.lookup ~dir ~key = None));
      Alcotest.(check bool) "entry quarantined" true
        (Sys.file_exists (Filename.concat dir (key ^ ".trace.corrupt"))))

(* --- verify --- *)

let test_verify_scan () =
  with_temp_cache_dir (fun dir ->
      let trace = small_trace () in
      let k1 = Trace_cache.make_key ~name:"v1" ~source:"s" ~seed:8 () in
      let k2 = Trace_cache.make_key ~name:"v2" ~source:"s" ~seed:9 () in
      store_exn ~dir ~key:k1 trace;
      store_exn ~dir ~key:k2 trace;
      (match
         Trace_cache.store_index ~dir ~key:k1 ~page_sizes:[ 4096 ]
           (Write_index.build ~page_sizes:[ 4096 ] trace)
       with
      | Ok () -> ()
      | Error msg -> Alcotest.fail ("store_index: " ^ msg));
      let path = Filename.concat dir (k2 ^ ".trace") in
      let data = read_file path in
      write_raw path (String.sub data 0 (String.length data / 2));
      (* Two traces and one index. *)
      let r = Trace_cache.verify ~quarantine:false ~dir () in
      Alcotest.(check int) "three entries checked" 3 r.Trace_cache.checked;
      Alcotest.(check int) "two intact" 2 r.Trace_cache.intact;
      Alcotest.(check (list string)) "the corrupt one is named"
        [ k2 ^ ".trace" ]
        (List.map fst r.Trace_cache.corrupt);
      Alcotest.(check bool) "no-quarantine left the file" true
        (Sys.file_exists path);
      let r = Trace_cache.verify ~dir () in
      Alcotest.(check int) "still flagged" 1 (List.length r.Trace_cache.corrupt);
      Alcotest.(check bool) "now quarantined" true
        (Sys.file_exists (path ^ ".corrupt") && not (Sys.file_exists path));
      let r = Trace_cache.verify ~dir () in
      Alcotest.(check int) "corpses skipped on the next scan" 2
        r.Trace_cache.checked;
      Alcotest.(check (list string)) "clean report" []
        (List.map fst r.Trace_cache.corrupt))

let test_index_lookup_corruption_is_miss () =
  with_temp_cache_dir (fun dir ->
      let trace = small_trace () in
      let key = Trace_cache.make_key ~name:"widx" ~source:"s" ~seed:10 () in
      let index = Write_index.build ~page_sizes:[ 4096 ] trace in
      (match Trace_cache.store_index ~dir ~key ~page_sizes:[ 4096 ] index with
      | Ok () -> ()
      | Error msg -> Alcotest.fail ("store_index: " ^ msg));
      (match Trace_cache.lookup_index ~dir ~key ~page_sizes:[ 4096 ] with
      | Some back ->
          Alcotest.(check bool) "round-trips" true (Write_index.equal index back)
      | None -> Alcotest.fail "index lookup after store");
      let file =
        key ^ "." ^ Trace_cache.index_key ~key ~page_sizes:[ 4096 ] ^ ".widx"
      in
      let path = Filename.concat dir file in
      let data = read_file path in
      let b = Bytes.of_string data in
      Bytes.set b (String.length data / 2)
        (Char.chr (Char.code (Bytes.get b (String.length data / 2)) lxor 1));
      write_raw path (Bytes.unsafe_to_string b);
      Alcotest.(check bool) "corrupt index is a miss" true
        (Trace_cache.lookup_index ~dir ~key ~page_sizes:[ 4096 ] = None);
      Alcotest.(check bool) "and quarantined" true
        (Sys.file_exists (path ^ ".corrupt")))

let () =
  Alcotest.run "fault"
    [
      ( "crc32",
        [
          Alcotest.test_case "known values" `Quick test_crc32_known_values;
          Alcotest.test_case "sensitivity" `Quick test_crc32_sensitivity;
        ] );
      ( "fault points",
        [
          Alcotest.test_case "disabled is a no-op" `Quick
            test_fault_disabled_is_noop;
          Alcotest.test_case "nth fires exactly once" `Quick
            test_fault_nth_fires_exactly_once;
          Alcotest.test_case "glob patterns" `Quick test_fault_glob_patterns;
          Alcotest.test_case "probability is seeded" `Quick
            test_fault_probability_deterministic;
          Alcotest.test_case "bitflip flips one bit" `Quick
            test_fault_mangle_bitflip;
          Alcotest.test_case "truncate is a strict prefix" `Quick
            test_fault_mangle_truncate;
          Alcotest.test_case "kill raises Killed" `Quick
            test_fault_kill_raises_killed;
          Alcotest.test_case "configure rebinds and resets" `Quick
            test_fault_configure_rebinds_and_resets;
          Alcotest.test_case "spec parsing" `Quick test_spec_parsing;
        ] );
      ( "sealed entries",
        [
          Alcotest.test_case "every bit flip detected" `Quick
            test_every_bitflip_detected;
          Alcotest.test_case "every truncation detected" `Quick
            test_every_truncation_detected;
          Alcotest.test_case "quarantine semantics" `Quick
            test_quarantine_semantics;
          Alcotest.test_case "store retries transient faults" `Quick
            test_store_retries_transient_fault;
          Alcotest.test_case "store gives up eventually" `Quick
            test_store_gives_up_on_persistent_fault;
          Alcotest.test_case "transient lookup fault is a plain miss" `Quick
            test_lookup_transient_fault_is_plain_miss;
          Alcotest.test_case "mangled store caught on lookup" `Quick
            test_mangled_store_detected_on_lookup;
        ] );
      ( "verify",
        [
          Alcotest.test_case "integrity scan" `Quick test_verify_scan;
          Alcotest.test_case "corrupt index is a miss" `Quick
            test_index_lookup_corruption_is_miss;
        ] );
    ]
