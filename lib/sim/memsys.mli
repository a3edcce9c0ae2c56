(** Banked, bussed memory-system timing model.

    Each node owns a split-transaction bus and a set of interleaved memory
    banks (one shared node in SMP mode). A request occupies the requester's
    bus (request), the home node's bank, and the requester's bus again
    (data return); the remaining uncontended latency is added as a fixed
    pipeline term so the total matches the configured local / remote /
    cache-to-cache latencies when there is no contention. *)

type t

type kind = Local | Remote | Dirty_remote

val create : Config.t -> nprocs:int -> t

val request : t -> proc:int -> home:int -> kind:kind -> line:int -> now:int -> int
(** Completion cycle of a miss issued at [now]. Mutates bus and bank
    reservations (contention). *)

val bus_busy : t -> int
(** Total cycles of bus occupancy accumulated (all nodes). *)

val bank_busy : t -> int

val bus_utilization : t -> upto:int -> float
(** Average bus occupancy per node over the first [upto] cycles. *)

val bank_utilization : t -> upto:int -> float

val mesh_hops : nprocs:int -> int -> int -> int
(** Manhattan distance between two node ids on the smallest square 2D
    mesh holding [nprocs] nodes (exposed for tests). *)
