(** Instruction-mix statistics over lowered traces — a quick sanity lens
    on what the lowering produced (and the numbers behind the paper's
    "loop body of i instructions" discussions). *)

type t = {
  total : int;
  int_ops : int;
  fp_ops : int;
  loads : int;
  stores : int;
  branches : int;
  barriers : int;
  prefetches : int;
  distinct_lines : int;  (** distinct cache lines touched (64 B) *)
}

val of_lowered : ?line_size:int -> Lower.t -> t
(** Aggregated over all processors. *)

val pp : Format.formatter -> t -> unit
