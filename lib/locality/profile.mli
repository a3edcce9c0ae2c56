(** Per-reference miss-rate profiling.

    The paper weights irregular leading references by their overall miss
    rate [P_m], "measured through cache simulation or profiling" (§3.2.2).
    This module runs the program once and plays its memory-access trace
    through a set-associative LRU cache (configured like the external
    cache), counting accesses and misses per static reference id. *)

open Memclust_ir

type t

type snapshots
(** Nest-entry snapshots of profiled runs over one initial store: each is
    the state of a run just before one top-level statement — a copy of
    the store, the bound scalars and op count ({!Exec.state}), the cache
    and the per-reference counts — keyed by a content digest of the
    statements before it (with the cache geometry and the program's
    parameters and declarations). Not a memo: a profile resumed from a
    snapshot is exactly the profile of a run from the start. *)

val snapshots : unit -> snapshots
(** An empty table, for profiles over one initial store. *)

val runs : snapshots -> int
(** Profiles run with the table. *)

val resumed : snapshots -> int
(** Those of {!runs} that resumed from a snapshot. *)

val run_ms : snapshots -> float
(** Wall time of {!runs}, in ms. *)

val run :
  ?cache_bytes:int ->
  ?assoc:int ->
  ?line_size:int ->
  ?snapshots:snapshots ->
  ?record:bool ->
  Ast.program ->
  Data.t ->
  t
(** Execute the program over a private copy of [data] (the caller's store
    is not modified) and profile it. Defaults: 64 KB, 4-way, 64 B lines —
    the paper's scaled L2.

    With [snapshots] (which must hold only snapshots over [data]), if the
    table has the state of a run just before the program's last top-level
    statement, the run starts from a copy of it and executes only that
    statement; [record] (default [false]) stores the run's own exit
    state, the entry state of a statement appended to the program. *)

val accesses : t -> int -> int
val misses : t -> int -> int

val miss_rate : t -> int -> float
(** [P_m] for reference [m]; 1.0 when the reference was never executed
    (the conservative assumption for unprofiled irregulars). *)
