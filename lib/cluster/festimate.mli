(** The paper's memory-parallelism candidate count f (Equations 1–4).

    [f] estimates how many overlapped misses to separate cache lines one
    "window's worth" of the innermost loop can sustain:

    - each regular leading reference m contributes C_m = ⌈W/(i·L_m)⌉
      copies (the window dynamically unrolls the body and breaks cache-line
      recurrences), or 1 when the loop carries an address recurrence;
    - each irregular leading reference contributes P_m·C_m, weighted by its
      profiled miss rate, rounded up in aggregate so irregulars present in
      the loop always reserve at least one miss resource. *)

open Memclust_locality
open Memclust_depgraph

type t = {
  f : float;  (** f = f_reg + f_irreg *)
  f_reg : float;
  f_irreg : float;
  body_ops : int;  (** i: estimated dynamic operations per iteration *)
  misses_per_iteration : float;
      (** Σ_reg 1/L_m + Σ_irreg P_m — the window-constraint stage's miss
          density, independent of W *)
  regular_leading : int;
  irregular_leading : int;
}

val compute :
  Machine_model.t ->
  Locality.t ->
  pm:(int -> float) ->
  graph:Depgraph.t ->
  Depgraph.inner ->
  t
(** [pm] maps a reference id to its profiled miss rate (use
    [Profile.miss_rate], or [fun _ -> 1.0] without profiling). *)

val reads_pm : Locality.t -> Depgraph.inner -> bool
(** Whether {!compute} calls its [pm] on this construct: exactly when a
    reference in its scope is a leading irregular one. Elsewhere f does
    not depend on [pm], so a caller can skip profiling. *)

val pp : Format.formatter -> t -> unit
