(** Frame-of-reference integer columns: the packing of the EBPT4 trace
    and EBPW3 write-index cache formats.

    [n] values are stored as [v - base] in [width] little-endian bytes
    each, [base] being the minimum and [width] (1 to 8) the fewest bytes
    holding the range. Reading element [i] is one unaligned 8-byte load
    at [pos + i * width], a mask and the base, so a column can be read
    in place from a mapping. That load may read {!pad} bytes past the
    column's last element, and {!write} may write them: every column
    region must be followed by at least {!pad} bytes of the same buffer.
    Callers bound-check [pos] and [n] before reading; nothing here does. *)

val pad : int
(** Bytes a column read or write may touch past the column's end (7). *)

val frame : int -> (int -> int) -> int * int
(** [frame n get] is [(base, width)] for the values [get 0 .. get (n-1)]:
    their minimum and the smallest byte width holding their range. An
    empty or constant column gets width 1. *)

val mask : int -> int
(** The mask that keeps the low [width] bytes of a load. *)

val valid_width : int -> bool
(** [1 <= width <= 8]: what decoders demand of a stored width byte. *)

val write : bytes -> pos:int -> base:int -> width:int -> int -> (int -> int) -> unit
(** [write b ~pos ~base ~width n get] stores [get 0 .. get (n-1)] at
    [pos], ascending. Each store writes 8 bytes, so the [pad] bytes past
    the column are overwritten (with zeros for widths below 8). *)

val get : string -> int -> base:int -> mask:int -> int
(** The element stored at byte offset [pos] (unchecked). *)

val read : string -> pos:int -> base:int -> width:int -> int -> int array
(** Decode a whole column to an [int array] (unchecked). *)
