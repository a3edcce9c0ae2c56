(** Small statistics toolkit used by the harness and benches. *)

val mean : float array -> float
(** Arithmetic mean; 0 for an empty array. *)

val geomean : float array -> float
(** Geometric mean of positive values; 0 for an empty array. *)

val stddev : float array -> float
(** Population standard deviation; 0 for fewer than two samples. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0,100], linear interpolation.
    Raises [Invalid_argument] on an empty array. *)

val minimum : float array -> float
val maximum : float array -> float

(** Streaming accumulator for counts, sums and extremes, O(1) memory. *)
module Acc : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val sum : t -> float
  val mean : t -> float
  val min : t -> float
  val max : t -> float
end

(** Integer-bucket histogram over a fixed range 0..n-1, used for MSHR
    occupancy distributions (Figure 4). *)
module Histogram : sig
  type t

  val create : int -> t
  (** [create n] has buckets for values 0..n-1; larger values clamp to n-1. *)

  val add : t -> int -> unit
  (** Record one observation with weight 1. *)

  val add_weighted : t -> int -> float -> unit

  val total : t -> float

  val fraction_at_least : t -> int -> float
  (** [fraction_at_least h k] is the fraction of total weight in buckets
      >= k — exactly the Y axis of the paper's Figure 4. *)

  val bucket : t -> int -> float
end
