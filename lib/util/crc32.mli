(** CRC-32 (IEEE 802.3, polynomial [0xEDB88320], reflected).

    The integrity check sealing every on-disk trace-cache entry, EBPS
    frame and EBPB1 stream block: cheap enough to run on every store and
    lookup, and — unlike a plain length check — it detects the single-bit
    flips and mid-file truncations the fault-injection harness throws at
    the cache. Not a cryptographic hash; the cache key (MD5 over content
    inputs) handles identity, the CRC only answers "did these bytes
    survive the disk?".

    Computed eight bytes at a time (slicing-by-8) on little-endian hosts,
    about 1 ns/byte; the value is the standard one either way. *)

val string : string -> int
(** [string s] is the CRC-32 of all of [s], in [[0, 2^32)]. *)

val sub : string -> pos:int -> len:int -> int
(** CRC-32 of [len] bytes of [s] starting at [pos].
    @raise Invalid_argument if the range is outside [s]. *)

val update : int -> string -> pos:int -> len:int -> int
(** [update crc s ~pos ~len] extends [crc], the CRC-32 of some prefix
    bytes, with [len] bytes of [s] starting at [pos]: the CRC of a
    concatenation is the chained [update] over its pieces, starting
    from [0] (the CRC of the empty string). [sub s ~pos ~len] is
    [update 0 s ~pos ~len].
    @raise Invalid_argument if the range is outside [s]. *)
