(* Frame-of-reference integer columns, the one packing both cache codecs
   (EBPT4 traces, EBPW3 write indexes) use.

   A column of n values is stored as [v - base] in [width] little-endian
   bytes per value, where [base] is the column minimum and [width] (1 to
   8) the fewest bytes that hold [max - min]. Element i is then one
   unaligned 8-byte load at [pos + i * width], a mask and an add — cheap
   enough to read in place from a mapping. The load reads up to [pad]
   bytes past the last element, so every column region is followed by at
   least [pad] bytes of the same buffer; writes rely on the same slack.

   Arithmetic is modulo 2^63 like every OCaml int, so a range too wide
   for 63 bits still round-trips at width 8 (mask -1): base + (v - base)
   is v whatever wraps in between. *)

external get64u : string -> int -> int64 = "%caml_string_get64u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let pad = 7

let[@inline] le w = if Sys.big_endian then swap64 w else w

let frame n get =
  if n = 0 then (0, 1)
  else begin
    let mn = ref (get 0) and mx = ref (get 0) in
    for i = 1 to n - 1 do
      let v = get i in
      if v < !mn then mn := v;
      if v > !mx then mx := v
    done;
    let range = !mx - !mn in
    let rec width w = if w = 8 || range < 1 lsl (8 * w) then w else width (w + 1) in
    (!mn, if range < 0 then 8 else width 1)
  end

let mask width = if width >= 8 then -1 else (1 lsl (8 * width)) - 1

let valid_width w = w >= 1 && w <= 8

let write b ~pos ~base ~width n get =
  for i = 0 to n - 1 do
    set64u b (pos + (i * width)) (le (Int64.of_int (get i - base)))
  done

let[@inline] get s pos ~base ~mask =
  base + (Int64.to_int (le (get64u s pos)) land mask)

let read s ~pos ~base ~width n =
  let mask = mask width in
  let a = Array.make n 0 in
  for i = 0 to n - 1 do
    Array.unsafe_set a i (get s (pos + (i * width)) ~base ~mask)
  done;
  a
