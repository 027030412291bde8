(* Properties of the indexed replay engine against the scan engine, and
   of the Write_index binary codec. The scan engine is the correctness
   oracle (it is itself property-tested against a naive per-event
   simulation in test_sessions.ml); the indexed engine must agree with
   it bit-for-bit on every Counts field, at every page size, on traces
   that exercise the deliberately-preserved semantic quirks:

   - wide writes (3+ words, non-adjacent pages at small page sizes);
   - unguarded removes (no matching install) and double installs;
   - objects sharing words and pages, address reuse across objects. *)

module Interval = Ebp_util.Interval
module Object_desc = Ebp_trace.Object_desc
module Trace = Ebp_trace.Trace
module Write_index = Ebp_trace.Write_index
module Session = Ebp_sessions.Session
module Counts = Ebp_sessions.Counts
module Replay = Ebp_sessions.Replay
module Indexed_replay = Ebp_sessions.Indexed_replay

let iv lo hi = Interval.make ~lo ~hi
let page_sizes = [ 1024; 4096; 8192 ]

(* --- random traces --- *)

(* A small universe of objects with deliberately overlapping ranges:
   [b] spans a 1K page boundary, [wide] covers 11 words (wide-write
   sized), [x1]/[x2] are two instantiations at the same address (stack
   reuse), and [far] lives beyond 2^32 so 1K page indices exceed the
   old 22-bit packing. *)
let objects =
  [|
    (Object_desc.Global { var = "a" }, iv 0x1000 0x1003);
    (Object_desc.Global { var = "b" }, iv 0x13fc 0x1407);
    (Object_desc.Global { var = "wide" }, iv 0x2000 0x202b);
    (Object_desc.Heap { context = [ "f"; "main" ]; seq = 1 }, iv 0x3000 0x300b);
    (Object_desc.Local { func = "f"; var = "x"; inst = 1 }, iv 0x8000 0x8003);
    (Object_desc.Local { func = "f"; var = "x"; inst = 2 }, iv 0x8000 0x8003);
    (Object_desc.Local { func = "f"; var = "y"; inst = 1 }, iv 0x8004 0x8007);
    (Object_desc.Global { var = "far" }, iv 0x1_0000_1000 0x1_0000_100b);
  |]

let sessions_under_test =
  [
    Session.One_global_static { var = "a" };
    Session.One_global_static { var = "b" };
    Session.One_global_static { var = "wide" };
    Session.One_global_static { var = "far" };
    Session.One_heap { site = "f"; seq = 1 };
    Session.One_local_auto { func = "f"; var = "x" };
    Session.All_local_in_func { func = "f" };
    Session.All_heap_in_func { func = "main" };
  ]

(* Ops are unguarded on purpose: installs may repeat while live and
   removes may lack a matching install — both engines must agree on the
   scan engine's idempotent-word / refcounted-page treatment of them. *)
let trace_gen =
  let open QCheck2.Gen in
  let* ops =
    list_size (int_range 1 120)
      (triple (int_range 0 5) (int_range 0 7) (int_range 0 40))
  in
  return
    (let b = Trace.Builder.create () in
     List.iter
       (fun (kind, idx, jitter) ->
         let idx = idx mod Array.length objects in
         let obj, range = objects.(idx) in
         match kind with
         | 0 | 1 -> Trace.Builder.add_install b obj range
         | 2 -> Trace.Builder.add_remove b obj range
         | 3 ->
             (* Word-aligned 4-byte write near (sometimes on) the object. *)
             let lo = (Interval.lo range + (jitter * 412)) land lnot 3 in
             Trace.Builder.add_write b (iv lo (lo + 3)) ~pc:idx
         | 4 ->
             (* Wide write: 3+ words, crossing pages for small sizes. *)
             let lo = (Interval.lo range + (jitter * 512)) land lnot 3 in
             Trace.Builder.add_write b (iv lo (lo + 19 + (4 * jitter))) ~pc:idx
         | _ ->
             (* Unaligned narrow write spanning a word boundary. *)
             let lo = Interval.lo range + jitter in
             Trace.Builder.add_write b (iv lo (lo + 2)) ~pc:idx)
       ops;
     Trace.Builder.finish b)

(* --- indexed engine vs scan engine --- *)

let counts_equal (a : Counts.t) (b : Counts.t) = a = b

let prop_indexed_matches_scan =
  QCheck2.Test.make ~name:"indexed replay matches scan engine" ~count:300
    trace_gen (fun trace ->
      let scan = Replay.replay_shard ~page_sizes trace sessions_under_test in
      let index = Write_index.build ~page_sizes trace in
      let indexed =
        Indexed_replay.replay_shard ~index ~page_sizes trace
          sessions_under_test
      in
      List.length scan = List.length indexed
      && List.for_all2
           (fun (s1, c1) (s2, c2) -> Session.equal s1 s2 && counts_equal c1 c2)
           scan indexed)

(* The public entry points must agree too (replay_all builds the index
   itself; passing ?index must not change anything). *)
let prop_replay_all_engines_agree =
  QCheck2.Test.make ~name:"replay_all Scan = replay_all Indexed" ~count:60
    trace_gen (fun trace ->
      let scan =
        Replay.replay_all ~page_sizes ~engine:Replay.Scan trace
          sessions_under_test
      in
      let indexed =
        Replay.replay_all ~page_sizes ~engine:Replay.Indexed trace
          sessions_under_test
      in
      scan = indexed)

(* --- Session.index vs Session.matches --- *)

let prop_session_index_matches =
  QCheck2.Test.make ~name:"Session.index agrees with Session.matches"
    ~count:200
    QCheck2.Gen.(int_range 0 ((Array.length objects * 2) - 1))
    (fun i ->
      let obj, _ = objects.(i mod Array.length objects) in
      let lookup = Session.index sessions_under_test in
      let expected =
        List.mapi (fun j s -> (j, s)) sessions_under_test
        |> List.filter_map (fun (j, s) ->
               if Session.matches s obj then Some j else None)
      in
      lookup obj = expected)

(* --- codec round trip --- *)

let prop_codec_round_trip =
  QCheck2.Test.make ~name:"Write_index codec round-trips" ~count:60 trace_gen
    (fun trace ->
      let index = Write_index.build ~page_sizes trace in
      match Write_index.decode (Write_index.encode index) with
      | Ok back -> Write_index.equal index back
      | Error msg -> QCheck2.Test.fail_reportf "codec: %s" msg)

(* --- pack-guard regression (40-bit page indices) --- *)

(* With 1 KiB pages, addresses beyond 2^32 have page indices beyond the
   22 bits the packed (session, page) key originally reserved; the old
   packing silently aliased page [p] with page [p + 2^22], crediting
   writes on one object's page to an unrelated session. The two objects
   below collide exactly that way. *)
let test_pack_guard_regression () =
  let near = Object_desc.Global { var = "near" } in
  let far = Object_desc.Global { var = "far" } in
  let near_lo = 0x5000 in
  let far_lo = near_lo + (1 lsl (22 + 10)) (* same 1K page mod 2^22 *) in
  let trace =
    let b = Trace.Builder.create () in
    Trace.Builder.add_install b near (iv near_lo (near_lo + 3));
    Trace.Builder.add_install b far (iv far_lo (far_lo + 3));
    (* Miss for "near", lands on "far"'s page. *)
    Trace.Builder.add_write b (iv (far_lo + 16) (far_lo + 19)) ~pc:0;
    Trace.Builder.finish b
  in
  let check engine =
    let results =
      Replay.replay_all ~page_sizes:[ 1024 ] ~engine trace
        [ Session.One_global_static { var = "near" };
          Session.One_global_static { var = "far" } ]
    in
    List.iter
      (fun (s, c) ->
        let vm = Counts.vm_for c ~page_size:1024 in
        match s with
        | Session.One_global_static { var = "near" } ->
            Alcotest.(check int) "near: write is off-page" 0
              vm.Counts.active_page_misses
        | _ ->
            Alcotest.(check int) "far: write is an active-page miss" 1
              vm.Counts.active_page_misses)
      results
  in
  check Replay.Scan;
  check Replay.Indexed

let test_pack_rejects_overflow () =
  (* Page indices past 40 bits cannot be represented; the scan engine
     must refuse rather than alias. *)
  let g = Object_desc.Global { var = "g" } in
  let lo = 1 lsl 51 in
  let trace =
    let b = Trace.Builder.create () in
    Trace.Builder.add_install b g (iv lo (lo + 3));
    Trace.Builder.finish b
  in
  Alcotest.check_raises "overflowing page index"
    (Invalid_argument
       "Replay: page index exceeds 40 bits (page size too small for this \
        address space)") (fun () ->
      ignore
        (Replay.replay_all ~page_sizes:[ 1024 ] ~engine:Replay.Scan trace
           [ Session.One_global_static { var = "g" } ]))

(* --- decoder hardening --- *)

let test_codec_mutation_fuzz () =
  (* A valid index blob under exhaustive single-bit flips and all
     mutated strict prefixes: [decode] must return [Error] or a
     (possibly different) [Ok] without ever raising — every array length
     it reads is clamped against the bytes present. Strict prefixes must
     always be [Error]: the field sequence is deterministic, so a
     truncated blob runs out of bytes mid-read. *)
  let trace =
    let b = Trace.Builder.create () in
    Array.iter
      (fun (o, range) ->
        Trace.Builder.add_install b o range;
        Trace.Builder.add_write b range ~pc:1;
        Trace.Builder.add_remove b o range)
      objects;
    Trace.Builder.finish b
  in
  let valid = Write_index.encode (Write_index.build ~page_sizes trace) in
  let len = String.length valid in
  for cut = 0 to len - 1 do
    match Write_index.decode (String.sub valid 0 cut) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "strict prefix of length %d/%d decoded" cut len
  done;
  for i = 0 to len - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string valid in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      match Write_index.decode (Bytes.unsafe_to_string b) with
      | Ok _ | Error _ -> ()
      | exception e ->
          Alcotest.failf "decode raised %s on bit %d of byte %d"
            (Printexc.to_string e) bit i
    done
  done

(* Byte-width arrays: the first array of an image (the word posting's
   keys, lo lsr 2) gets 1, 2, 3, 4, 5 and 8 bytes across these traces;
   every array of each must round-trip. *)
let first_width_off = 5 + 8 + 8 + 8 + 8

let test_codec_width_classes () =
  let g = Object_desc.Global { var = "g" } in
  let trace los =
    let b = Trace.Builder.create () in
    List.iter (fun lo -> Trace.Builder.add_install b g (iv lo (lo + 3))) los;
    List.iteri
      (fun i lo -> Trace.Builder.add_write b (iv lo (lo + 3 + (i mod 2))) ~pc:(i - 1))
      los;
    Trace.Builder.finish b
  in
  let spread lo range = [ lo; lo + (range / 3); lo + range ] in
  List.iter
    (fun (name, key_width, t) ->
      let index = Write_index.build ~page_sizes t in
      let image = Write_index.encode index in
      (match key_width with
      | Some w ->
          Alcotest.(check int) (name ^ ": key width") w
            (Char.code image.[first_width_off])
      | None -> ());
      match Write_index.decode image with
      | Error e -> Alcotest.failf "%s: decode failed: %s" name e
      | Ok index' ->
          Alcotest.(check bool) (name ^ ": equal") true (Write_index.equal index index'))
    [
      ("1 byte", Some 1, trace (spread 100 200));
      ("2 bytes", Some 2, trace (spread 4096 60_000));
      ("3 bytes", Some 3, trace (spread 65536 (1 lsl 22)));
      ("4 bytes", Some 4, trace (spread 0 (1 lsl 30)));
      ("past 2^32", Some 5, trace (spread (1 lsl 32) (1 lsl 34)));
      ("8 bytes", Some 8, trace [ min_int; 0; max_int - 7 ]);
      ("one write", Some 1, trace [ 64 ]);
      ("empty", None, trace []);
    ]

let test_codec_width_rejects () =
  let trace =
    let b = Trace.Builder.create () in
    Array.iter
      (fun (o, range) ->
        Trace.Builder.add_install b o range;
        Trace.Builder.add_write b range ~pc:1)
      objects;
    Trace.Builder.finish b
  in
  let valid = Write_index.encode (Write_index.build ~page_sizes trace) in
  let edit f =
    let b = Bytes.of_string valid in
    f b;
    Bytes.unsafe_to_string b
  in
  let expect what image =
    let before = Gc.allocated_bytes () in
    (match Write_index.decode image with
    | Ok _ -> Alcotest.failf "decoded %s" what
    | Error _ -> ());
    if Gc.allocated_bytes () -. before > 1e6 then
      Alcotest.failf "%s: decoder allocated %.0f bytes" what
        (Gc.allocated_bytes () -. before)
  in
  expect "width byte 0" (edit (fun b -> Bytes.set b first_width_off '\x00'));
  expect "width byte 9" (edit (fun b -> Bytes.set b first_width_off '\x09'));
  expect "a count larger than the bytes present"
    (edit (fun b ->
         Bytes.set_int64_le b (first_width_off - 16) (Int64.of_int (1 lsl 40))));
  expect "a missing pad" (String.sub valid 0 (String.length valid - 7))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "indexed"
    [
      ( "engine equivalence",
        [ q prop_indexed_matches_scan; q prop_replay_all_engines_agree ] );
      ("session index", [ q prop_session_index_matches ]);
      ( "codec",
        [
          q prop_codec_round_trip;
          Alcotest.test_case "mutation fuzz" `Quick test_codec_mutation_fuzz;
          Alcotest.test_case "width classes" `Quick test_codec_width_classes;
          Alcotest.test_case "width rejects" `Quick test_codec_width_rejects;
        ] );
      ( "pack guard",
        [
          Alcotest.test_case "1K pages past 2^32" `Quick
            test_pack_guard_regression;
          Alcotest.test_case "overflow rejected" `Quick
            test_pack_rejects_overflow;
        ] );
    ]
