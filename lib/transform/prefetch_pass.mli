(** Software prefetch insertion (Mowry-style, simplified) — the latency
    tolerance technique the paper compares against (§1) and whose
    interaction with clustering it flags as ongoing work (§6, [8]).

    For every innermost counted loop, insert a non-binding prefetch for
    each leading reference, targeting the iteration [distance] ahead:

    - regular references prefetch [A(i + distance·step)] (no predication:
      redundant same-line hints are issued and dropped by the cache, the
      usual cost of unpredicated prefetching);
    - irregular (indirect) references prefetch [A(index(i + distance))],
      re-evaluating the index expression one distance ahead — the index
      stream load this adds is usually a cache hit;
    - pointer chases are left alone (the next address is not computable
      ahead of time — the classic limit of prefetching on recursive
      structures).

    The default distance is ⌈latency / (body_ops / issue_width)⌉
    iterations, Mowry's rule with our static body size estimate. *)

open Memclust_ir
open Ast

val distance_for : latency:int -> issue_width:int -> stmt list -> int
(** The prefetch distance for one loop body. At least 1. *)

val insert :
  ?latency:int ->
  ?issue_width:int ->
  ?line_size:int ->
  program ->
  program * int
(** Insert prefetches into every innermost counted loop; returns the
    renumbered program and the number of prefetch statements added.
    Defaults: latency 85, issue width 4, 64-byte lines. *)
