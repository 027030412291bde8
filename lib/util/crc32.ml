(* Reflected CRC-32, slicing-by-8: eight 256-entry tables let the inner
   loop fold eight bytes per step from two 32-bit loads instead of one
   table lookup per byte. [tables.(k * 256 + n)] is the CRC contribution
   of byte [n] followed by [k] zero bytes, so table 0 is the classic
   bytewise table and the result is bit-identical to it. Built eagerly at
   module initialisation (2048 ints), so every domain reads the same
   immutable array with no lazy-force race. *)

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

(* Native-endian unaligned 32-bit load; the sliced loop runs only on
   little-endian hosts, where that is the little-endian word it needs. *)
external get32u : string -> int -> int32 = "%caml_string_get32u"

let update crc s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.update";
  let tab k n = Array.unsafe_get tables ((k lsl 8) + n) in
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref pos in
  let stop = pos + len in
  if not Sys.big_endian then
    while !i + 8 <= stop do
      let one = !c lxor (Int32.to_int (get32u s !i) land 0xFFFFFFFF) in
      let two = Int32.to_int (get32u s (!i + 4)) land 0xFFFFFFFF in
      c :=
        tab 7 (one land 0xff)
        lxor tab 6 ((one lsr 8) land 0xff)
        lxor tab 5 ((one lsr 16) land 0xff)
        lxor tab 4 (one lsr 24)
        lxor tab 3 (two land 0xff)
        lxor tab 2 ((two lsr 8) land 0xff)
        lxor tab 1 ((two lsr 16) land 0xff)
        lxor tab 0 (two lsr 24);
      i := !i + 8
    done;
  while !i < stop do
    c :=
      tab 0 ((!c lxor Char.code (String.unsafe_get s !i)) land 0xff)
      lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xFFFFFFFF

let sub s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.sub";
  update 0 s ~pos ~len

let string s = update 0 s ~pos:0 ~len:(String.length s)
