(** Compact per-processor dynamic instruction trace.

    The lowering pass runs the IR executor once and records every dynamic
    operation with its register dataflow (up to two producer indices).
    The trace is a table of [Bytes] chunks of 2^16 24-byte records each
    (aux as a 64-bit integer; each dependence as a 32-bit distance back,
    0 for none; the reference id as a 32-bit integer; the kind as one
    byte). Records are written in place: a chunk is allocated when the
    length reaches a multiple of 2^16, only the small table of chunk
    pointers is doubled, no record is ever copied, and only the last
    chunk is partly filled. The chunks are never scanned by the GC, so
    multi-million-instruction traces stay cheap to build and to hold. The
    out-of-order core consumes a trace by index. *)

type kind = Int_op | Fp_op | Load | Store | Branch | Barrier_op | Prefetch_op

val kind_code : kind -> int
val kind_of_code : int -> kind

type t

val create : unit -> t
val length : t -> int

val push :
  t -> kind:kind -> aux:int -> dep1:int -> dep2:int -> ref_:int -> int
(** Append an instruction; returns its index. [aux] holds the FP latency
    for [Fp_op], the byte address for [Load]/[Store], and the barrier
    sequence number for [Barrier_op]. [dep1]/[dep2] are producer indices in
    the same trace, or -1. [ref_] is the static reference id (0 for
    non-memory operations). Raises [Invalid_argument], naming the index,
    when a dependence is neither -1 nor an earlier instruction's index,
    when [ref_] is outside [\[0, 2^31)], or when the trace already holds
    [2^31 - 1] instructions. *)

val kind : t -> int -> kind
val aux : t -> int -> int
val dep1 : t -> int -> int
val dep2 : t -> int -> int
val ref_id : t -> int -> int

val count_kind : t -> kind -> int
(** The number of instructions of that kind pushed so far, counted by
    {!push}: O(1). *)

(**/**)

val chunk : int
(** Records per chunk, so a test can place lengths and dependences
    around chunk boundaries. *)

val set_length_for_testing : t -> int -> unit
(** Claim that [n] instructions have been pushed, without storing them,
    so a test can reach {!push}'s length limit. Only {!length} and a
    {!push} that is expected to raise may follow. *)
