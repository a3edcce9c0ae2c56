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
  ?attempts:int ->
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

    It never raises. Each task gets up to [attempts] tries (default 2,
    i.e. one retry — transient failures such as an OOM-killed allocation
    often succeed on retry); a task that still fails yields [Error] in
    its slot — [Error.t] as-is if it raised [Error.Error], otherwise
    [Worker_crashed] naming the task (via [task_name], default
    ["task-<i>"]) — while every other task's result is preserved. *)

val shutdown : t -> unit
(** Stop and join the workers. Subsequent [map_result] calls run
    inline. Idempotent. *)

val default : unit -> t
(** A lazily-created shared pool sized by [MEMCLUST_DOMAINS] (an integer
    count of worker domains; [0] forces sequential) or
    [recommended_domain_count () - 1]. Shut down automatically at exit. *)
