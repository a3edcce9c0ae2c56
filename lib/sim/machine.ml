open Memclust_util
open Memclust_codegen

type result = {
  cycles : int;
  breakdown : Breakdown.t;
  per_proc : Breakdown.t array;
  read_mshr_hist : Stats.Histogram.t;
  total_mshr_hist : Stats.Histogram.t;
  level_stats : Breakdown.level_stat array;
  l2_misses : int;
  read_misses : int;
  l1_misses : int;
  mshr_full_events : int;
  wbuf_full_events : int;
  prefetches : int;
  prefetch_misses : int;
  late_prefetches : int;
  avg_read_miss_latency : float;
  bus_utilization : float;
  bank_utilization : float;
  instructions : int;
}

let ns_per_cycle (cfg : Config.t) = 1000.0 /. float_of_int cfg.Config.clock_mhz

type mode = Cycle | Event

let mode_of_string s =
  match String.lowercase_ascii s with
  | "cycle" -> Some Cycle
  | "event" -> Some Event
  | _ -> None

let mode_to_string = function Cycle -> "cycle" | Event -> "event"

let bad_mode where s =
  invalid_arg
    (Printf.sprintf "%s: expected \"cycle\" or \"event\", got %S" where s)

let default_mode () =
  match Sys.getenv_opt "MEMCLUST_SIM_MODE" with
  | None -> Event
  | Some s -> (
      match mode_of_string s with
      | Some m -> m
      | None -> bad_mode "MEMCLUST_SIM_MODE" s)

let resolve_mode ?mode (cfg : Config.t) =
  match mode with
  | Some m -> m
  | None -> (
      match cfg.Config.sim_mode with
      | Some s -> (
          match mode_of_string s with
          | Some m -> m
          | None -> bad_mode "Config.sim_mode" s)
      | None -> default_mode ())

(* ------------------------------------------------------------------ *)
(* The lockstep engine. *)

type engine = {
  sh : Core.shared;
  procs : Core.t array;
  (* per-cycle MSHR occupancy weights, by occupancy (clamped to the last
     bucket, as [Stats.Histogram] does); integer counts, so [assemble]
     builds the same float histograms as adding one cycle at a time *)
  read_weights : int array;
  total_weights : int array;
  mutable cycle : int;
  (* per-core sleep state (event mode): after a no-progress step at cycle
     [slept.(p)] (-1 = awake), core [p] is not stepped again until cycle
     [wake_at.(p)] (its next completion event, [max_int] if none) or
     until the barrier epoch differs from [epoch_at.(p)] *)
  slept : int array;
  wake_at : int array;
  epoch_at : int array;
  (* cycle of the step that finished each core (-1 for an empty trace,
     [max_int] while it runs) *)
  finished_at : int array;
  max_cycles : int;
  (* forward-progress watchdog (reads state only: the happy path stays
     bit-identical with it enabled) *)
  watchdog_cycles : int;
  time_budget : float;  (* wall-clock seconds; 0 disables *)
  start_wall : float;
  mutable last_progress : int;  (* cycle of the last core state change *)
  mutable wd_iters : int;  (* loop iterations, for cheap periodic checks *)
  mode : mode;
}

(* An empty value reads as unset; anything else must parse. *)
let env_value name ~default ~expected parse =
  match Sys.getenv_opt name with
  | None | Some "" -> default
  | Some s -> (
      match parse s with
      | Some v -> v
      | None -> invalid_arg (Printf.sprintf "%s: expected %s, got %S" name expected s))

let default_watchdog_cycles () =
  env_value "MEMCLUST_WATCHDOG_CYCLES" ~default:1_000_000
    ~expected:"a positive number of cycles" (fun s ->
      Option.bind (int_of_string_opt s) (fun v -> if v > 0 then Some v else None))

let default_time_budget () =
  env_value "MEMCLUST_TIME_BUDGET_S" ~default:0.0
    ~expected:"a number of seconds >= 0 (0 disables)" (fun s ->
      Option.bind (float_of_string_opt s) (fun v -> if v >= 0.0 then Some v else None))

let make_engine ?(max_cycles = 400_000_000) ?watchdog_cycles ?time_budget
    ~mode (cfg : Config.t) ~home (lower : Lower.t) =
  let nprocs = Array.length lower.Lower.traces in
  let sh = Core.make_shared cfg ~nprocs ~home in
  let procs =
    Array.mapi (fun p trace -> Core.create sh ~proc:p trace) lower.Lower.traces
  in
  {
    sh;
    procs;
    read_weights = Array.make (Config.lp cfg + 1) 0;
    total_weights = Array.make (Config.lp cfg + 1) 0;
    cycle = 0;
    slept = Array.make nprocs (-1);
    wake_at = Array.make nprocs max_int;
    epoch_at = Array.make nprocs 0;
    finished_at =
      Array.map (fun c -> if Core.finished c then -1 else max_int) procs;
    max_cycles;
    watchdog_cycles =
      (match watchdog_cycles with
      | Some v when v > 0 -> v
      | _ -> default_watchdog_cycles ());
    time_budget =
      (match time_budget with
      | Some v when v > 0.0 -> v
      | _ -> default_time_budget ());
    start_wall = Unix.gettimeofday ();
    last_progress = 0;
    wd_iters = 0;
    mode;
  }

(* The watchdog's state dump: per-proc PC, barrier progress, per-level
   MSHR occupancy and the pending completion events — everything needed
   to diagnose a wedge (MSHR exhaustion, barrier livelock) post mortem. *)
let state_dump e =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "simulator state at cycle %d:" e.cycle);
  Array.iteri
    (fun p c ->
      let mshrs =
        Core.mshr_occupancy_by_level c
        |> Array.to_list
        |> List.mapi (fun i (occ, cap) ->
               Printf.sprintf "L%d %d/%d" (i + 1) occ cap)
        |> String.concat " "
      in
      Buffer.add_string b
        (Printf.sprintf
           "\n  proc %d: pc %d/%d%s, barrier %d, mshrs [%s], next event %s"
           p (Core.position c)
           (Trace.length (Core.trace c))
           (if Core.finished c then " (finished)" else "")
           e.sh.Core.reached.(p) mshrs
           (match Core.next_event c ~now:e.cycle with
           | n when n = max_int -> "none"
           | n -> string_of_int n)))
    e.procs;
  Buffer.contents b

let deadlock e ~reason =
  Error.raise_err
    (Error.Sim_deadlock
       {
         cycle = e.cycle;
         mode = mode_to_string e.mode;
         reason;
         state_dump = state_dump e;
       })

let add_weight weights v w =
  let last = Array.length weights - 1 in
  let i = if v < 0 then 0 else if v > last then last else v in
  weights.(i) <- weights.(i) + w

(* Account [w] cycles of core [c]'s current MSHR occupancy in the
   per-cycle occupancy weights. *)
let sample e c w =
  add_weight e.read_weights (Core.mshr_read_occupancy c) w;
  add_weight e.total_weights (Core.mshr_total_occupancy c) w

(* Wake a sleeping core at [e.cycle]: replay the cycles it slept through
   (its occupancy is frozen while it sleeps). *)
let wake e p =
  let c = e.procs.(p) in
  let skipped = e.cycle - e.slept.(p) - 1 in
  if skipped > 0 then begin
    Core.replay_idle c ~times:skipped;
    sample e c skipped
  end;
  e.slept.(p) <- -1

(* Run the lockstep loop until every core has finished. Each cycle steps
   the awake unfinished cores in processor order. In event mode a core
   whose step made no progress sleeps until its own next completion
   event or a barrier-epoch change, whichever comes first; checking the
   epoch in processor order wakes it exactly when the lockstep loop
   would first see the change (an arrival by core q at cycle c is seen
   at c by cores after q and at c + 1 by cores before it). When no core
   is awake the clock jumps to the earliest wake time. Cycle mode is the
   same loop with sleeping turned off. *)
let advance e =
  let nprocs = Array.length e.procs in
  let sleeping = e.mode = Event in
  let go = ref true in
  while !go do
    if e.cycle > e.max_cycles then
      deadlock e
        ~reason:
          (Printf.sprintf "exceeded the %d-cycle simulation budget"
             e.max_cycles);
    e.wd_iters <- e.wd_iters + 1;
    if
      e.time_budget > 0.0
      && e.wd_iters land 8191 = 0
      && Unix.gettimeofday () -. e.start_wall > e.time_budget
    then
      deadlock e
        ~reason:
          (Printf.sprintf "exceeded the %.1fs wall-clock budget" e.time_budget);
    let running = ref false in
    let any_progress = ref false in
    for p = 0 to nprocs - 1 do
      if e.finished_at.(p) = max_int then begin
        let c = e.procs.(p) in
        if
          e.slept.(p) >= 0
          && (e.wake_at.(p) <= e.cycle
             || e.epoch_at.(p) <> e.sh.Core.barrier_epoch)
        then wake e p;
        if e.slept.(p) < 0 then begin
          Core.step c ~now:e.cycle;
          sample e c 1;
          let progressed = Core.progressed c in
          if progressed then any_progress := true;
          if Core.finished c then e.finished_at.(p) <- e.cycle
          else if sleeping && not progressed then begin
            e.slept.(p) <- e.cycle;
            e.wake_at.(p) <- Core.next_event c ~now:e.cycle;
            e.epoch_at.(p) <- e.sh.Core.barrier_epoch
          end
        end;
        if e.finished_at.(p) = max_int then running := true
      end
    done;
    if !running then begin
      if !any_progress then e.last_progress <- e.cycle
      else if e.cycle - e.last_progress > e.watchdog_cycles then
        deadlock e
          ~reason:
            (Printf.sprintf
               "no core issued, retired or completed an event for %d cycles \
                (watchdog budget %d)"
               (e.cycle - e.last_progress) e.watchdog_cycles);
      if !any_progress || not sleeping then e.cycle <- e.cycle + 1
      else begin
        (* every unfinished core is asleep, and none saw an epoch change
           (that is progress); jump to the earliest wake time *)
        let next = ref max_int in
        for p = 0 to nprocs - 1 do
          if e.finished_at.(p) = max_int && e.wake_at.(p) < !next then
            next := e.wake_at.(p)
        done;
        if !next = max_int then
          (* nothing pending anywhere yet cores are unfinished: a
             genuine deadlock — report it now with the machine state
             instead of spinning to the cycle budget *)
          deadlock e
            ~reason:
              "no completion pending on any processor and no core can make \
               progress";
        e.cycle <- !next
      end
    end
    else go := false
  done;
  (* a finished core waits for the others: charge it sync stall and its
     frozen occupancy for every cycle after the step that finished it *)
  Array.iteri
    (fun p c ->
      let w = e.cycle - e.finished_at.(p) in
      if w > 0 then begin
        let bd = Core.breakdown c in
        bd.Breakdown.sync_stall <- bd.Breakdown.sync_stall +. float_of_int w;
        sample e c w
      end)
    e.procs

(* Every weight is a whole number of cycles, far below 2^53, so the
   float sums are exact whatever order they are added in. *)
let histogram weights =
  let h = Stats.Histogram.create (Array.length weights) in
  Array.iteri (fun v w -> Stats.Histogram.add_weighted h v (float_of_int w)) weights;
  h

let fold_procs e f = Array.fold_left (fun acc p -> acc + f p) 0 e.procs

(* per-level demand-load hits/misses summed over processors *)
let sum_level_stats e =
  let d = Core.hierarchy_depth e.procs.(0) in
  let acc =
    Array.init d (fun i -> Breakdown.level_create (Printf.sprintf "L%d" (i + 1)))
  in
  Array.iter
    (fun p ->
      Array.iteri (fun i l -> Breakdown.level_add acc.(i) l) (Core.level_stats p))
    e.procs;
  acc

let assemble e =
  let cycles = e.cycle + 1 in
  let per_proc = Array.map Core.breakdown e.procs in
  (* each processor was attributed for the cycles before its own finish
     only; pad with sync so every processor accounts for [cycles] *)
  Array.iter
    (fun bd ->
      let missing = float_of_int cycles -. Breakdown.total bd in
      if missing > 0.0 then
        bd.Breakdown.sync_stall <- bd.Breakdown.sync_stall +. missing)
    per_proc;
  let breakdown = Breakdown.create () in
  Array.iter (fun bd -> Breakdown.add breakdown bd) per_proc;
  let breakdown =
    Breakdown.scale breakdown (1.0 /. float_of_int (Array.length e.procs))
  in
  let read_misses = fold_procs e Core.read_misses in
  let lat_sum =
    Array.fold_left (fun acc p -> acc +. Core.read_miss_latency_sum p) 0.0 e.procs
  in
  {
    cycles;
    breakdown;
    per_proc;
    read_mshr_hist = histogram e.read_weights;
    total_mshr_hist = histogram e.total_weights;
    level_stats = sum_level_stats e;
    l2_misses = fold_procs e Core.l2_misses;
    read_misses;
    l1_misses = fold_procs e Core.l1_misses;
    mshr_full_events = fold_procs e Core.mshr_full_events;
    wbuf_full_events = fold_procs e Core.wbuf_full_events;
    prefetches = fold_procs e Core.prefetches;
    prefetch_misses = fold_procs e Core.prefetch_misses;
    late_prefetches = fold_procs e Core.late_prefetches;
    avg_read_miss_latency =
      (if read_misses = 0 then 0.0 else lat_sum /. float_of_int read_misses);
    bus_utilization = Memsys.bus_utilization e.sh.Core.h.Hierarchy.mem ~upto:cycles;
    bank_utilization = Memsys.bank_utilization e.sh.Core.h.Hierarchy.mem ~upto:cycles;
    instructions = fold_procs e Core.retired_instructions;
  }

let run ?max_cycles ?watchdog_cycles ?time_budget ?mode (cfg : Config.t) ~home
    (lower : Lower.t) =
  let mode = resolve_mode ?mode cfg in
  let e =
    make_engine ?max_cycles ?watchdog_cycles ?time_budget ~mode cfg ~home lower
  in
  advance e;
  assemble e

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>cycles %d, instrs %d (IPC %.2f)@,%a@,\
     memory misses %d (reads %d, avg latency %.1f cycles), mshr-full %d, wbuf-full %d@,\
     levels: %a@,\
     bus util %.2f, bank util %.2f@]"
    r.cycles r.instructions
    (float_of_int r.instructions /. float_of_int (Int.max 1 r.cycles))
    Breakdown.pp r.breakdown r.l2_misses r.read_misses r.avg_read_miss_latency
    r.mshr_full_events r.wbuf_full_events
    Breakdown.pp_levels r.level_stats
    r.bus_utilization r.bank_utilization
