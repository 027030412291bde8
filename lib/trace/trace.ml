module Interval = Ebp_util.Interval

type event =
  | Install of { obj : Object_desc.t; range : Interval.t }
  | Remove of { obj : Object_desc.t; range : Interval.t }
  | Write of { range : Interval.t; pc : int }

(* Packed storage: 4 ints per event — tagged object word, lo, hi, pc.
   The tag lives in the low 2 bits of the first word; the object id (or 0
   for writes) in the remaining bits. *)
let stride = 4
let tag_install = 0
let tag_remove = 1
let tag_write = 2

(* Two physical layouts behind one abstract type:

   - [Heap]: the classic interleaved [int array] (4 ints per event). The
     builder and the fully-checked {!decode} produce this form.
   - [Mapped]: the EBPT4 columnar form — four struct-of-arrays
     byte-width columns (see {!Byte_column}) read in place from an
     mmap'd file, plus per-block min/max summaries. Nothing is decoded on
     load and nothing lives on the OCaml heap except the (small) object
     side table, so a mapped trace is shareable read-only across domains
     and across server tenants for free. See the EBPT4 codec comment
     below. *)

type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* One column of a mapping: element i lives at byte [off + i * width]. *)
type column = { off : int; width : int; base : int; mask : int }

type mapped = {
  (* The block summaries (8-byte words), then the columns, then the pad. *)
  m_buf : bigstring;
  m_w0 : column;
  m_lo : column;
  m_span : column;  (* hi - lo *)
  m_pc : column;
  (* Blocks of [m_block_events] events, each with 4 summary words at the
     front of [m_buf]: install/remove count, write count, min write lo,
     max write hi. *)
  m_nblocks : int;
  m_block_events : int;
  (* Bounds of every install/remove range in the trace ([max_int] /
     [min_int] when there are none): anything a session can monitor lies
     inside, so a pure-write block disjoint from these bounds cannot
     produce hits or page touches. *)
  m_install_lo : int;
  m_install_hi : int;
}

type storage = Heap of int array | Mapped of mapped

type t = {
  storage : storage;
  count : int;
  objs : Object_desc.t array;
}

module Builder = struct
  type builder = {
    mutable data : int array;
    mutable count : int;
    mutable objs : Object_desc.t list;  (* reversed *)
    mutable obj_count : int;
    intern : (Object_desc.t, int) Hashtbl.t;
  }

  type t = builder

  let create ?(hint = 1024) () =
    { data = Array.make (max 16 hint * stride) 0; count = 0; objs = [];
      obj_count = 0; intern = Hashtbl.create 64 }

  let ensure b =
    let needed = (b.count + 1) * stride in
    if needed > Array.length b.data then begin
      let bigger = Array.make (max needed (2 * Array.length b.data)) 0 in
      Array.blit b.data 0 bigger 0 (b.count * stride);
      b.data <- bigger
    end

  (* [register] appends without consulting the intern table: the recorder
     mints a fresh descriptor per activation, so an intern lookup would
     hash two strings only to miss. Callers that might see the same
     descriptor twice go through [intern] instead; both draw ids from the
     same sequence, so they can be mixed as long as no descriptor is fed
     to both. *)
  let register b obj =
    let id = b.obj_count in
    b.objs <- obj :: b.objs;
    b.obj_count <- id + 1;
    id

  let intern b obj =
    match Hashtbl.find_opt b.intern obj with
    | Some id -> id
    | None ->
        let id = register b obj in
        Hashtbl.add b.intern obj id;
        id

  let push b w0 lo hi pc =
    ensure b;
    let base = b.count * stride in
    b.data.(base) <- w0;
    b.data.(base + 1) <- lo;
    b.data.(base + 2) <- hi;
    b.data.(base + 3) <- pc;
    b.count <- b.count + 1

  let add_install_id b id ~lo ~hi = push b ((id lsl 2) lor tag_install) lo hi (-1)

  let add_remove_id b id ~lo ~hi = push b ((id lsl 2) lor tag_remove) lo hi (-1)

  let add_install b obj range =
    add_install_id b (intern b obj) ~lo:(Interval.lo range) ~hi:(Interval.hi range)

  let add_remove b obj range =
    add_remove_id b (intern b obj) ~lo:(Interval.lo range) ~hi:(Interval.hi range)

  let add_write b range ~pc =
    push b tag_write (Interval.lo range) (Interval.hi range) pc

  let add_write_raw b ~lo ~hi ~pc = push b tag_write lo hi pc

  let length b = b.count
  let object_count b = b.obj_count

  let finish b =
    let used = b.count * stride in
    {
      (* A well-hinted builder lands exactly full: hand the buffer over
         without the copy. The builder must not be reused after. *)
      storage =
        Heap
          (if Array.length b.data = used then b.data
           else Array.sub b.data 0 used);
      count = b.count;
      objs = Array.of_list (List.rev b.objs);
    }
end

let length t = t.count
let is_mapped t = match t.storage with Mapped _ -> true | Heap _ -> false

let install_bounds t =
  match t.storage with
  | Mapped m when m.m_install_lo <= m.m_install_hi ->
      Some (m.m_install_lo, m.m_install_hi)
  | _ -> None

(* The mapped read of {!Byte_column}, spelled out here so it inlines:
   dune's default (dev) profile compiles with -opaque, which stops every
   call across modules from inlining, and these run once per field per
   event. Primitives inline regardless. *)
external bs_get64u : bigstring -> int -> int64 = "%caml_bigstring_get64u"

external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] load buf pos =
  Int64.to_int
    (if Sys.big_endian then swap64 (bs_get64u buf pos) else bs_get64u buf pos)

let[@inline] col_get buf c i = c.base + (load buf (c.off + (i * c.width)) land c.mask)

(* Column access, one closure per column: cold consumers (the codecs,
   [get]) dispatch on the storage once and then read either layout
   through the same shape. The hot iterators below specialize the whole
   loop per layout instead. *)
let column_getter t j =
  match t.storage with
  | Heap data -> fun i -> Array.unsafe_get data ((i * stride) + j)
  | Mapped m -> (
      let buf = m.m_buf in
      match j with
      | 0 -> col_get buf m.m_w0
      | 1 -> col_get buf m.m_lo
      | 2 -> fun i -> col_get buf m.m_lo i + col_get buf m.m_span i
      | _ -> col_get buf m.m_pc)

let get t i =
  if i < 0 || i >= t.count then invalid_arg "Trace.get: index out of range";
  let word j = (column_getter t j) i in
  let w0 = word 0 in
  let tag = w0 land 3 in
  let range = Interval.make ~lo:(word 1) ~hi:(word 2) in
  if tag = tag_write then Write { range; pc = word 3 }
  else
    let obj = t.objs.(w0 lsr 2) in
    if tag = tag_install then Install { obj; range } else Remove { obj; range }

let get_raw t i f =
  if i < 0 || i >= t.count then invalid_arg "Trace.get_raw: index out of range";
  let word j = (column_getter t j) i in
  let w0 = word 0 in
  let tag = w0 land 3 in
  f ~tag
    ~obj:(if tag = tag_write then -1 else w0 lsr 2)
    ~lo:(word 1) ~hi:(word 2)
    ~pc:(if tag = tag_write then word 3 else -1)

let iter t f =
  for i = 0 to t.count - 1 do
    f (get t i)
  done

let iter_raw_range t ~start ~stop f =
  if start < 0 || stop > t.count || start > stop then
    invalid_arg "Trace.iter_raw_range: bad event range";
  match t.storage with
  | Heap data ->
      for i = start to stop - 1 do
        let base = i * stride in
        let w0 = Array.unsafe_get data base in
        let tag = w0 land 3 in
        f ~tag
          ~obj:(if tag = tag_write then -1 else w0 lsr 2)
          ~lo:(Array.unsafe_get data (base + 1))
          ~hi:(Array.unsafe_get data (base + 2))
          ~pc:(if tag = tag_write then Array.unsafe_get data (base + 3) else -1)
      done
  | Mapped m ->
      (* The column descriptors in locals: one load, mask and add per
         field, nothing re-read from the record per event. *)
      let buf = m.m_buf in
      let { off = w0_off; width = w0_w; base = w0_base; mask = w0_mask } =
        m.m_w0
      and { off = lo_off; width = lo_w; base = lo_base; mask = lo_mask } =
        m.m_lo
      and { off = sp_off; width = sp_w; base = sp_base; mask = sp_mask } =
        m.m_span
      and { off = pc_off; width = pc_w; base = pc_base; mask = pc_mask } =
        m.m_pc
      in
      for i = start to stop - 1 do
        let w0 = w0_base + (load buf (w0_off + (i * w0_w)) land w0_mask) in
        let tag = w0 land 3 in
        let lo = lo_base + (load buf (lo_off + (i * lo_w)) land lo_mask) in
        f ~tag
          ~obj:(if tag = tag_write then -1 else w0 lsr 2)
          ~lo
          ~hi:(lo + sp_base + (load buf (sp_off + (i * sp_w)) land sp_mask))
          ~pc:
            (if tag = tag_write then
               pc_base + (load buf (pc_off + (i * pc_w)) land pc_mask)
             else -1)
      done

let iter_raw t f = iter_raw_range t ~start:0 ~stop:t.count f

let iter_raw_skipping t ~skip ~on_skip f =
  match t.storage with
  | Heap _ -> iter_raw t f
  | Mapped m ->
      let sum k = load m.m_buf (8 * k) in
      for b = 0 to m.m_nblocks - 1 do
        let base = 4 * b in
        let meta = sum base and writes = sum (base + 1) in
        if meta = 0 && writes > 0
           && skip ~min_lo:(sum (base + 2)) ~max_hi:(sum (base + 3))
        then on_skip ~writes
        else
          iter_raw_range t ~start:(b * m.m_block_events)
            ~stop:(min t.count ((b + 1) * m.m_block_events))
            f
      done

let object_count t = Array.length t.objs
let object_of_id t id = t.objs.(id)
let objects t = Array.copy t.objs

type stats = {
  events : int;
  installs : int;
  removes : int;
  writes : int;
  distinct_objects : int;
  write_bytes : int;
}

let stats t =
  let installs = ref 0 and removes = ref 0 and writes = ref 0 and bytes = ref 0 in
  iter_raw t (fun ~tag ~obj:_ ~lo ~hi ~pc:_ ->
      if tag = tag_install then incr installs
      else if tag = tag_remove then incr removes
      else begin
        incr writes;
        bytes := !bytes + (hi - lo + 1)
      end);
  {
    events = t.count;
    installs = !installs;
    removes = !removes;
    writes = !writes;
    distinct_objects = Array.length t.objs;
    write_bytes = !bytes;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "events=%d installs=%d removes=%d writes=%d objects=%d write_bytes=%d"
    s.events s.installs s.removes s.writes s.distinct_objects s.write_bytes

(* --- text printer ([ebp trace --text]) --- *)

let to_text t =
  let buf = Buffer.create (t.count * 24) in
  iter t (fun event ->
      (match event with
      | Install { obj; range } ->
          Buffer.add_string buf
            (Printf.sprintf "I %s %d %d" (Object_desc.to_string obj)
               (Interval.lo range) (Interval.hi range))
      | Remove { obj; range } ->
          Buffer.add_string buf
            (Printf.sprintf "R %s %d %d" (Object_desc.to_string obj)
               (Interval.lo range) (Interval.hi range))
      | Write { range; pc } ->
          Buffer.add_string buf
            (Printf.sprintf "W %d %d %d" (Interval.lo range) (Interval.hi range) pc));
      Buffer.add_char buf '\n');
  Buffer.contents buf

(* --- the codec: EBPT4, the mmap-able columnar layout ---

   EBPT4 is the one trace format: the cache entry, the [ebp trace -o]
   file and a [--from-trace] input. It lays the four event columns out
   as byte-width frame-of-reference columns ({!Byte_column}): each
   stores its minimum and the fewest bytes (1 to 8) that hold its range,
   both chosen by the encoder from the data. A warm load is a single
   [Unix.map_file]: no per-event decode, no OCaml-heap allocation
   proportional to the trace, and the page cache shares one physical
   copy across every domain and every process that maps it. Reading a field is one unaligned 8-byte load, a mask and the
   base; a recorded trace needs 3 + 3 + 1 + 2 bytes per event where the
   fixed 8-byte words of EBPT3 took 32.

     bytes 0-7     magic "EBPT4\0\0\0"
     bytes 8-111   13 header words (8-byte LE):
                     count, nobjs, meta_len, objs_len,
                     block_events, nblocks, install_lo, install_hi,
                     the bases of w0, lo, hi - lo and pc,
                     their widths, one byte each from the low end
     then          meta bytes (opaque caller string, as Trace_cache meta)
     then          object table: a varint string pool (the distinct
                   function/variable names), then per object a tag byte
                   plus varint pool indices and integers
     pad to 8
     then          block summaries: nblocks x 4 words
                     (install/remove count, write count, min write lo,
                      max write hi) over blocks of [block_events] events
     then          columns w0, lo, hi - lo, pc: count x width bytes each
     then          7 zero bytes, so the last element's 8-byte load stays
                   inside the file
     trailer       "EBPZ" + 8-byte LE CRC-32 of everything before it

   [decode] verifies everything including the CRC (it is what
   [ebp cache verify], [--from-trace] and the fuzzer's trace-codec oracle
   run). [map_file] is the hot path: it validates the header (widths 1
   to 8 included), the object table, the exact file length (pad
   included), the trailer magic, and the whole w0 column (tags and
   object ids), but —
   deliberately — not the CRC of the column payload: checksumming the
   payload on every warm load would cost more than the decode it
   replaces. Full-payload integrity is the job of the sealed write path,
   [ebp cache verify], and — when fault injection is active, which is
   exactly when bytes get mangled in flight — [~verify:true].
   docs/PERFORMANCE.md states the tradeoff.

   The summaries give consumers block skipping: a block whose summary
   shows no install/remove events and whose write range cannot overlap
   [install_lo, install_hi] (the bounds of everything monitorable) can
   only contribute its write count, never a hit — [iter_raw_skipping]
   above exploits exactly that. *)

module Metrics = Ebp_obs.Metrics
module Obs_span = Ebp_obs.Span

let m_bytes_out = Metrics.counter "trace.codec.bytes_out"
let m_bytes_in = Metrics.counter "trace.codec.bytes_in"
let m_mapped_bytes = Metrics.counter "trace.codec.mapped_bytes"

exception Malformed of string

let add_uvarint buf v =
  let rec go v =
    if 0 <= v && v < 0x80 then Buffer.add_char buf (Char.unsafe_chr v)
    else begin
      Buffer.add_char buf (Char.unsafe_chr (0x80 lor (v land 0x7f)));
      go (v lsr 7)
    end
  in
  go v

let codec_version = "EBPT4"
let magic = "EBPT4\x00\x00\x00"
let events_per_block = 4096
let header_words = 13
let header_len = 8 + (8 * header_words)
let trailer_magic = "EBPZ"
let trailer_len = 12

let p_map = Ebp_util.Fault.point "trace.codec.map"

let align8 n = (n + 7) land lnot 7

(* The object table stores descriptors directly, not their printed
   form: at half a million descriptors (lattice) re-parsing printed
   forms on load cost more than mapping every column combined. It is a
   pool of the distinct strings (function and variable names repeat
   across activations, so the pool stays tiny), then per descriptor a
   tag byte plus varint pool indices and integers. Loading allocates
   each distinct name once and one record per descriptor — nothing is
   parsed from text. *)

let encode_obj_table objs =
  let body = Buffer.create 256 and pool_buf = Buffer.create 256 in
  let pool = Hashtbl.create 64 in
  let npool = ref 0 in
  let sidx s =
    match Hashtbl.find_opt pool s with
    | Some i -> i
    | None ->
        let i = !npool in
        incr npool;
        Hashtbl.add pool s i;
        add_uvarint pool_buf (String.length s);
        Buffer.add_string pool_buf s;
        i
  in
  Array.iter
    (fun (obj : Object_desc.t) ->
      match obj with
      | Local { func; var; inst } ->
          let func = sidx func in
          let var = sidx var in
          Buffer.add_char body '\x00';
          add_uvarint body func;
          add_uvarint body var;
          add_uvarint body inst
      | Local_static { func; var } ->
          let func = sidx func in
          let var = sidx var in
          Buffer.add_char body '\x01';
          add_uvarint body func;
          add_uvarint body var
      | Global { var } ->
          let var = sidx var in
          Buffer.add_char body '\x02';
          add_uvarint body var
      | Heap { context; seq } ->
          let ctx = List.map sidx context in
          Buffer.add_char body '\x03';
          add_uvarint body (List.length ctx);
          List.iter (add_uvarint body) ctx;
          add_uvarint body seq)
    objs;
  let out =
    Buffer.create (10 + Buffer.length pool_buf + Buffer.length body)
  in
  add_uvarint out !npool;
  Buffer.add_buffer out pool_buf;
  Buffer.add_buffer out body;
  Buffer.contents out

(* Strictly bounds-checked against [objs_end]; raises [Malformed] and
   demands the table fill its region exactly, like every other columnar
   length check. *)
let decode_obj_table ~nobjs blob ~pos:pos0 ~objs_end =
  let fail msg = raise (Malformed msg) in
  let pos = ref pos0 in
  let next_byte () =
    if !pos >= objs_end then fail "truncated columnar object table";
    let b = Char.code (String.unsafe_get blob !pos) in
    incr pos;
    b
  in
  (* One closure for the whole table, not one per varint: at half a
     million descriptors a per-call [go] closure would dominate the
     load's allocation. *)
  let rec uvarint shift acc =
    if shift > 56 then fail "oversized varint in columnar object table";
    let b = next_byte () in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b < 0x80 then acc else uvarint (shift + 7) acc
  in
  let read_uvarint () = uvarint 0 0 in
  if nobjs > objs_end - pos0 then fail "bad object count in columnar trace";
  let npool = read_uvarint () in
  if npool < 0 || npool > objs_end - !pos then
    fail "bad columnar string pool";
  let pool =
    Array.init npool (fun _ ->
        let slen = read_uvarint () in
        if slen < 0 || slen > objs_end - !pos then
          fail "truncated columnar string pool";
        let s = String.sub blob !pos slen in
        pos := !pos + slen;
        s)
  in
  let str () =
    let i = read_uvarint () in
    if i < 0 || i >= npool then
      fail "bad string index in columnar object table";
    pool.(i)
  in
  let objs =
    Array.init nobjs (fun _ ->
        match next_byte () with
        | 0 ->
            let func = str () in
            let var = str () in
            let inst = read_uvarint () in
            Object_desc.Local { func; var; inst }
        | 1 ->
            let func = str () in
            let var = str () in
            Object_desc.Local_static { func; var }
        | 2 -> Object_desc.Global { var = str () }
        | 3 ->
            let n = read_uvarint () in
            if n < 0 || n > objs_end - !pos then
              fail "bad heap context in columnar object table";
            let context = ref [] in
            for _ = 1 to n do
              context := str () :: !context
            done;
            let seq = read_uvarint () in
            Object_desc.Heap { context = List.rev !context; seq }
        | _ -> fail "bad object tag in columnar trace")
  in
  if !pos <> objs_end then fail "trailing bytes in columnar object table";
  objs

(* Per-block summaries plus the global install bounds, computed from
   either storage. Shared by the encoder and the decoder's consistency
   check, so a corrupt summary can never silently disable or misdirect
   block skipping. *)
let compute_summaries t =
  let be = events_per_block in
  let nblocks = (t.count + be - 1) / be in
  let sums = Array.make (nblocks * 4) 0 in
  let ilo = ref max_int and ihi = ref min_int in
  for b = 0 to nblocks - 1 do
    let meta = ref 0 and writes = ref 0 in
    let mn = ref max_int and mx = ref min_int in
    iter_raw_range t ~start:(b * be) ~stop:(min t.count ((b + 1) * be))
      (fun ~tag ~obj:_ ~lo ~hi ~pc:_ ->
        if tag = tag_write then begin
          incr writes;
          if lo < !mn then mn := lo;
          if hi > !mx then mx := hi
        end
        else begin
          incr meta;
          if lo < !ilo then ilo := lo;
          if hi > !ihi then ihi := hi
        end);
    let base = 4 * b in
    sums.(base) <- !meta;
    sums.(base + 1) <- !writes;
    sums.(base + 2) <- (if !writes = 0 then 0 else !mn);
    sums.(base + 3) <- (if !writes = 0 then -1 else !mx)
  done;
  (sums, !ilo, !ihi)

(* The four stored columns of either storage, in file order. *)
let stored_columns t =
  let lo = column_getter t 1 and hi = column_getter t 2 in
  [| column_getter t 0; lo; (fun i -> hi i - lo i); column_getter t 3 |]

let encode ?(meta = "") t =
  Obs_span.with_span "codec.encode" @@ fun () ->
  let count = t.count in
  let nobjs = Array.length t.objs in
  let objs_blob = encode_obj_table t.objs in
  let objs_len = String.length objs_blob in
  let meta_len = String.length meta in
  let sums, install_lo, install_hi = compute_summaries t in
  let nblocks = Array.length sums / 4 in
  let columns = stored_columns t in
  let frames = Array.map (Byte_column.frame count) columns in
  let objs_end = header_len + meta_len + objs_len in
  let data_off = align8 objs_end in
  let cols_off = data_off + (Array.length sums * 8) in
  let cols_end =
    Array.fold_left (fun off (_, width) -> off + (count * width)) cols_off frames
  in
  let body_len = cols_end + Byte_column.pad in
  (* One exact-size allocation, every byte written once: the header,
     the alignment padding, the summaries and columns, the pad, then the
     trailer sealing it in place. *)
  let buf = Bytes.create (body_len + trailer_len) in
  Bytes.blit_string magic 0 buf 0 8;
  let set_word pos v = Bytes.set_int64_le buf pos (Int64.of_int v) in
  List.iteri
    (fun i v -> set_word (8 + (8 * i)) v)
    ([ count; nobjs; meta_len; objs_len; events_per_block; nblocks;
       install_lo; install_hi ]
    @ Array.to_list (Array.map fst frames)
    @ [ Array.fold_right (fun (_, width) acc -> (acc lsl 8) lor width) frames 0 ]);
  Bytes.blit_string meta 0 buf header_len meta_len;
  Bytes.blit_string objs_blob 0 buf (header_len + meta_len) objs_len;
  Bytes.fill buf objs_end (data_off - objs_end) '\x00';
  Array.iteri (fun i v -> set_word (data_off + (8 * i)) v) sums;
  let pos = ref cols_off in
  Array.iteri
    (fun j (base, width) ->
      Byte_column.write buf ~pos:!pos ~base ~width count columns.(j);
      pos := !pos + (count * width))
    frames;
  Bytes.fill buf cols_end Byte_column.pad '\x00';
  Bytes.blit_string trailer_magic 0 buf body_len 4;
  set_word (body_len + 4)
    (Ebp_util.Crc32.sub (Bytes.unsafe_to_string buf) ~pos:0 ~len:body_len);
  Metrics.add m_bytes_out (Bytes.length buf);
  Bytes.unsafe_to_string buf

(* Header parsing and structural validation shared by the full decoder
   and the mapping loader. Returns everything needed to locate the
   column region. *)
type header = {
  h_count : int;
  h_nobjs : int;
  h_meta_len : int;
  h_objs_len : int;
  h_nblocks : int;
  h_install_lo : int;
  h_install_hi : int;
  h_data_off : int;
  h_body_len : int;
  (* w0, lo, hi - lo, pc, with offsets from the file start *)
  h_columns : column array;
}

let parse_header ~file_len first_bytes =
  (* [first_bytes] must hold at least the fixed header. *)
  let fail msg = raise (Malformed msg) in
  if file_len < header_len + trailer_len then
    fail "columnar trace too short";
  if String.sub first_bytes 0 8 <> magic then
    fail "bad columnar magic";
  let word i = Int64.to_int (String.get_int64_le first_bytes (8 + (8 * i))) in
  let h_count = word 0 and h_nobjs = word 1 in
  let h_meta_len = word 2 and h_objs_len = word 3 in
  let block_events = word 4 and h_nblocks = word 5 in
  let h_install_lo = word 6 and h_install_hi = word 7 in
  let widths = word 12 in
  let width j = (widths lsr (8 * j)) land 0xff in
  let h_body_len = file_len - trailer_len in
  if h_count < 0 || h_nobjs < 0 || h_meta_len < 0 || h_objs_len < 0 then
    fail "negative size in columnar header";
  if block_events <> events_per_block then fail "bad columnar block size";
  if h_nblocks <> (h_count + block_events - 1) / block_events then
    fail "bad columnar block count";
  if widths lsr 32 <> 0
     || not
          (List.for_all (fun j -> Byte_column.valid_width (width j)) [ 0; 1; 2; 3 ])
  then fail "bad columnar column width";
  if h_meta_len > h_body_len || h_objs_len > h_body_len - h_meta_len then
    fail "columnar header out of bounds";
  let h_data_off = align8 (header_len + h_meta_len + h_objs_len) in
  let event_bytes = width 0 + width 1 + width 2 + width 3 in
  let cols_off = h_data_off + (4 * h_nblocks * 8) in
  if h_count > (h_body_len - h_data_off) / event_bytes
     || cols_off + (h_count * event_bytes) + Byte_column.pad <> h_body_len
  then fail "columnar length does not match header";
  let off = ref cols_off in
  let h_columns =
    Array.init 4 (fun j ->
        let c =
          { off = !off; width = width j; base = word (8 + j);
            mask = Byte_column.mask (width j) }
        in
        off := !off + (h_count * c.width);
        c)
  in
  {
    h_count; h_nobjs; h_meta_len; h_objs_len; h_nblocks; h_install_lo;
    h_install_hi; h_data_off; h_body_len; h_columns;
  }

let check_w0 ~nobjs w0 =
  let tag = w0 land 3 in
  if tag > tag_write then raise (Malformed "bad event tag in columnar trace");
  if tag <> tag_write && w0 lsr 2 >= nobjs then
    raise (Malformed "bad object id in columnar trace")

let decode s =
  Obs_span.with_span "codec.decode" @@ fun () ->
  let fail msg = raise (Malformed msg) in
  match
    let len = String.length s in
    let h = parse_header ~file_len:len s in
    (* Trailer first: like the cache's sealed entries, corruption is
       caught before anything is sized or decoded from the payload. *)
    if String.sub s h.h_body_len 4 <> trailer_magic then
      fail "missing columnar checksum trailer";
    if String.get_int64_le s (len - 8)
       <> Int64.of_int (Ebp_util.Crc32.sub s ~pos:0 ~len:h.h_body_len)
    then fail "columnar checksum mismatch";
    let meta = String.sub s header_len h.h_meta_len in
    let objs =
      decode_obj_table ~nobjs:h.h_nobjs s
        ~pos:(header_len + h.h_meta_len)
        ~objs_end:(header_len + h.h_meta_len + h.h_objs_len)
    in
    let data = Array.make (h.h_count * stride) 0 in
    Array.iteri
      (fun j c ->
        for i = 0 to h.h_count - 1 do
          data.((i * stride) + j) <-
            Byte_column.get s (c.off + (i * c.width)) ~base:c.base ~mask:c.mask
        done)
      h.h_columns;
    for i = 0 to h.h_count - 1 do
      let base = i * stride in
      check_w0 ~nobjs:h.h_nobjs data.(base);
      data.(base + 2) <- data.(base + 1) + data.(base + 2)
    done;
    let t = { storage = Heap data; count = h.h_count; objs } in
    (* The summaries drive block skipping; a mismatch would silently
       change which events replay visits, so they are re-derived and
       compared, not trusted. *)
    let sums, install_lo, install_hi = compute_summaries t in
    if install_lo <> h.h_install_lo || install_hi <> h.h_install_hi then
      fail "columnar install bounds mismatch";
    Array.iteri
      (fun i v ->
        if Int64.to_int (String.get_int64_le s (h.h_data_off + (8 * i))) <> v
        then fail "columnar block summary mismatch")
      sums;
    Metrics.add m_bytes_in (String.length s);
    Ok (t, meta)
  with
  | result -> result
  | exception Malformed msg -> Error msg

let really_read fd buf =
  let n = Bytes.length buf in
  let got = ref 0 in
  (try
     while !got < n do
       let r = Unix.read fd buf !got (n - !got) in
       if r = 0 then got := n (* short file: caught by length checks *)
       else got := !got + r
     done
   with Unix.Unix_error _ -> raise (Malformed "unreadable columnar trace"));
  Bytes.unsafe_to_string buf

(* The whole file in one exact-size read (no growth-and-copy). *)
let read_file path =
  In_channel.with_open_bin path (fun ic ->
      really_input_string ic (Int64.to_int (In_channel.length ic)))

let map_file ?(verify = false) ?(mangle = Fun.id) path =
  Obs_span.with_span "codec.map" @@ fun () ->
  (* Raises [Fault.Injected] (a transient, retryable miss — the cache
     reads it as a miss without quarantining) rather than returning
     [Error], which means "this file is bad". *)
  Ebp_util.Fault.check p_map;
  if verify then
    (* The slow, fully-checked load: everything [decode]
       rejects, this rejects. Used under fault injection, where mangled
       bytes are the point. *)
    match read_file path with
    | exception (Sys_error msg) -> Error msg
    | exception End_of_file -> Error "columnar trace shrank while read"
    | s -> decode (mangle s)
  else
    match
      let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      let file_len = (Unix.fstat fd).Unix.st_size in
      if file_len < header_len + trailer_len then
        raise (Malformed "columnar trace too short");
      let first = really_read fd (Bytes.create header_len) in
      let h = parse_header ~file_len first in
      (* meta + object table, read (not mapped): they are small and land
         on the heap as ordinary values either way. *)
      let blob = really_read fd (Bytes.create (h.h_meta_len + h.h_objs_len)) in
      let meta = String.sub blob 0 h.h_meta_len in
      let objs =
        decode_obj_table ~nobjs:h.h_nobjs blob ~pos:h.h_meta_len
          ~objs_end:(h.h_meta_len + h.h_objs_len)
      in
      ignore (Unix.lseek fd (file_len - trailer_len) Unix.SEEK_SET);
      let trailer = really_read fd (Bytes.create 4) in
      if trailer <> trailer_magic then
        raise (Malformed "missing columnar checksum trailer");
      (* Summaries, columns and pad: never empty, the pad alone is 7
         bytes, and every column load ends inside it. *)
      let buf =
        Bigarray.array1_of_genarray
          (Unix.map_file fd ~pos:(Int64.of_int h.h_data_off) Bigarray.char
             Bigarray.c_layout false
             [| h.h_body_len - h.h_data_off |])
      in
      let col j =
        let c = h.h_columns.(j) in
        { c with off = c.off - h.h_data_off }
      in
      let m =
        {
          m_buf = buf;
          m_w0 = col 0;
          m_lo = col 1;
          m_span = col 2;
          m_pc = col 3;
          m_nblocks = h.h_nblocks;
          m_block_events = events_per_block;
          m_install_lo = h.h_install_lo;
          m_install_hi = h.h_install_hi;
        }
      in
      (* One pass over the w0 column: every tag and object id is checked
         up front (they index OCaml arrays later), and the pages of the
         hottest column are faulted in while we are at it. The other
         three columns are plain integers — any value is safe. *)
      for i = 0 to h.h_count - 1 do
        check_w0 ~nobjs:h.h_nobjs (col_get buf m.m_w0 i)
      done;
      Metrics.add m_mapped_bytes file_len;
      Ok ({ storage = Mapped m; count = h.h_count; objs }, meta)
    with
    | result -> result
    | exception Malformed msg -> Error msg
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
    | exception Sys_error msg -> Error msg

let header_events s =
  if String.length s < 16 || String.sub s 0 8 <> magic then None
  else Some (Int64.to_int (String.get_int64_le s 8))
