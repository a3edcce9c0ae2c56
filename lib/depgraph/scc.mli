(** Tarjan's strongly-connected-components algorithm over small integer
    graphs (nodes are arbitrary ints, adjacency given as a function). *)

val compute : nodes:int list -> succ:(int -> int list) -> int list list
(** Strongly connected components in reverse topological order. Singleton
    components are included even without a self-edge; the caller decides
    whether they form a cycle. *)
