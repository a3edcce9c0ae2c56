(** Compact per-processor dynamic instruction trace.

    The lowering pass runs the IR executor once and records every dynamic
    operation with its register dataflow (up to two producer indices) in a
    struct-of-arrays layout, so multi-million-instruction traces stay
    cheap. The out-of-order core consumes a trace by index. *)

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
    the same trace, or -1. Raises [Invalid_argument], naming the index,
    unless each is -1 or an earlier instruction's index. *)

val kind : t -> int -> kind
val aux : t -> int -> int
val dep1 : t -> int -> int
val dep2 : t -> int -> int
val ref_id : t -> int -> int

val count_kind : t -> kind -> int
