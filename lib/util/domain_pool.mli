(** A fixed-size pool of OCaml 5 domains for running independent tasks —
    one experiment spec per task — in parallel.

    Workers are spawned once and reused across calls, so the (multi-ms)
    domain spawn cost is paid once per pool, not once per task. All
    scheduling state is protected by a single mutex; tasks themselves run
    outside it. Tasks must only share state through their own
    synchronization (the experiment memo tables are mutex-guarded). *)

type t

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns [max 0 domains] worker domains (default:
    [recommended_domain_count () - 1], so workers plus the submitting
    domain match the hardware). With zero workers every [map_result]
    runs inline in the caller — correct, just sequential. *)

val size : t -> int
(** Number of worker domains (0 means [map_result] runs inline). *)

val map_result :
  ?task_name:('a -> string) ->
  t ->
  ('a -> 'b) ->
  'a list ->
  ('b, Error.t) result list
(** [map_result pool f xs] applies [f] to every element of [xs], using
    the worker domains, and returns the results in order. The calling
    domain also executes tasks while it waits, so a pool of [n] workers
    uses [n + 1] cores. Recursive use ([f] itself calling [map_result] on
    the same pool) is safe: tasks submitted from inside a worker run
    inline rather than deadlock waiting for a free worker.

    It never raises. A task that raises [Error.Error] (a deterministic
    failure such as a simulator deadlock) yields that [Error.t] in its
    slot at once, without a retry. Any other exception gets two tries
    (one retry — transient failures such as an OOM-killed allocation
    often succeed on retry); a task that
    still fails yields [Worker_crashed] naming the task (via [task_name],
    default ["task-<i>"]). Every other task's result is preserved. *)

val shutdown : t -> unit
(** Stop and join the workers. Subsequent [map_result] calls run
    inline. Idempotent. *)

val domains_of_env : unit -> int option
(** [MEMCLUST_DOMAINS], a worker count [>= 0] ([0] forces sequential);
    [None] when unset or empty; raises [Invalid_argument] naming the
    variable on any other value. Spawns nothing. *)

val default : unit -> t
(** A lazily-created shared pool sized by {!domains_of_env} or
    [recommended_domain_count () - 1]. Shut down automatically at exit. *)
