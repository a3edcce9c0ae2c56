open Memclust_util
open Memclust_codegen

type shared = {
  h : Hierarchy.shared;
  reached : int array;
  mutable barrier_epoch : int;
}

(* Where a cycle's unused retire slots are charged: [Uncharged] when the
   whole trace has retired and only the write buffer is draining. *)
type stall = Uncharged | Cpu_stall | Data_stall | Sync_stall

type t = {
  proc : int;
  trace : Trace.t;
  sh : shared;
  h : Hierarchy.t;  (* this processor's cache/MSHR stack *)
  ring_mask : int;
      (* ring capacity - 1; capacity is the next power of two >= cfg.window
         so the per-slot index reduction is a mask, not a division (the
         issue scan does it billions of times). Any window-length index
         range still maps to distinct slots. *)
  (* reorder buffer: ring over trace indices [head, tail) *)
  state : int array;  (* 0 = waiting, 1 = scheduled/completed *)
  done_at : int array;
  mutable head : int;
  mutable tail : int;
  (* the unissued in-window instructions as a singly-linked list in trace
     order ([pend_next] is indexed by slot): the issue scan visits only
     instructions that can still issue instead of walking the whole
     window past already-issued entries *)
  mutable pend_head : int;  (* trace index, -1 = none *)
  mutable pend_last : int;
  pend_next : int array;
  (* completion times of issued-but-unretired instructions; [done_at] is
     written once per issued instruction and retirement requires
     [done_at <= now], so entries with a time in the past are stale and
     popped lazily — the heap minimum beyond [now] is exactly what the
     old per-window scan in [next_event] computed *)
  done_heap : unit Pqueue.t;
  (* sleeping entries: blocked instructions whose earliest possible issue
     cycle is known (their blocking dependence is issued with a future
     [done_at], or is itself asleep until a known time). They are removed
     from the pending list and re-merged when their wake time arrives, so
     the per-cycle scan never revisits them. [sleep_until] is the per-slot
     wake time (stale, <= now, when not sleeping). Wake times are always
     [done_at] values of issued-unretired instructions, so [next_event]'s
     completion heap already bounds every wake — sleeping never lets the
     event loop skip past a cycle where an instruction could issue. *)
  wake_heap : int Pqueue.t;
  sleep_until : int array;
  mutable branches : int;
  (* write buffer *)
  wpending : int Queue.t;
  winflight : unit Pqueue.t;  (* completion times of draining writes *)
  wstalled : bool array;  (* per-slot: store already counted a wbuf-full stall *)
  blocker : int array;
      (* per-slot: a dependence token that failed [dep_done] the last time
         the issue scan considered the slot, or -1. [dep_done] is monotone
         in [now] and [head], so while the cached token is still pending
         the whole (side-effect-free) issue check can be skipped. *)
  has_barriers : bool;
      (* every instruction kind except Barrier_op needs a functional unit
         to issue, so barrier-free traces can stop the issue scan as soon
         as all units are claimed *)
  (* event-driven support: did the last [step] change simulation state
     (as opposed to only accumulating per-cycle statistics)? *)
  mutable progressed : bool;
  (* what [replay_idle] repeats of the last step: where its retire slots
     were charged, and how many loads it retried on full MSHRs *)
  mutable stall : stall;
  mutable retries : int;
  (* statistics (pipeline-owned; memory-side counters live in [h]) *)
  bd : Breakdown.t;
  mutable retired_count : int;
  mutable wbuf_full_events : int;
}

let make_shared cfg ~nprocs ~home =
  {
    h = Hierarchy.make_shared cfg ~nprocs ~home;
    reached = Array.make nprocs 0;
    barrier_epoch = 0;
  }

let cfg_of t = t.sh.h.Hierarchy.cfg

let create (sh : shared) ~proc trace =
  let cfg = sh.h.Hierarchy.cfg in
  let cap =
    let rec up n = if n >= cfg.Config.window then n else up (n * 2) in
    up 1
  in
  let h = Hierarchy.create sh.h ~proc in
  {
    proc;
    trace;
    sh;
    h;
    ring_mask = cap - 1;
    state = Array.make cap 0;
    done_at = Array.make cap 0;
    head = 0;
    tail = 0;
    pend_head = -1;
    pend_last = -1;
    pend_next = Array.make cap (-1);
    done_heap = Pqueue.create ();
    wake_heap = Pqueue.create ();
    sleep_until = Array.make cap (-1);
    branches = 0;
    wpending = Queue.create ();
    winflight = Pqueue.create ();
    wstalled = Array.make cap false;
    blocker = Array.make cap (-1);
    has_barriers =
      (let n = Trace.length trace in
       let rec scan i =
         i < n
         && (match Trace.kind trace i with
            | Trace.Barrier_op -> true
            | _ -> scan (i + 1))
       in
       scan 0);
    progressed = false;
    stall = Uncharged;
    retries = 0;
    bd = Breakdown.create ();
    retired_count = 0;
    wbuf_full_events = 0;
  }

let slot t i = i land t.ring_mask

(* ------------------------------------------------------------------ *)

let cleanup_mshrs t ~now =
  if Hierarchy.cleanup t.h ~now then t.progressed <- true

let drain_wbuf t ~now =
  while Pqueue.min_prio t.winflight <= now do
    Pqueue.drop_min t.winflight;
    t.progressed <- true
  done;
  if not (Queue.is_empty t.wpending) then begin
    let addr = Queue.peek t.wpending in
    match Hierarchy.write t.h ~now addr with
    | Some completion ->
        ignore (Queue.pop t.wpending);
        Pqueue.push t.winflight completion ();
        t.progressed <- true
    | None -> ()
  end

let wbuf_occupancy t = Queue.length t.wpending + Pqueue.length t.winflight

(* [done_at] is written once per issued instruction and retirement
   requires [done_at <= now], so heap entries at or before [now] can
   never again be the "earliest future completion": drop them. *)
let drain_done t ~now =
  while Pqueue.min_prio t.done_heap <= now do
    Pqueue.drop_min t.done_heap
  done

let barrier_satisfied t aux =
  let ok = ref true in
  Array.iter (fun r -> if r < aux then ok := false) t.sh.reached;
  !ok

let charge t stall w =
  let bd = t.bd in
  match stall with
  | Uncharged -> ()
  | Cpu_stall -> bd.Breakdown.cpu_stall <- bd.Breakdown.cpu_stall +. w
  | Data_stall -> bd.Breakdown.data_stall <- bd.Breakdown.data_stall +. w
  | Sync_stall -> bd.Breakdown.sync_stall <- bd.Breakdown.sync_stall +. w

let retire t ~now =
  let cfg = cfg_of t in
  let width = cfg.Config.retire_width in
  let r = ref 0 in
  let stall = ref Cpu_stall in
  let continue_ = ref true in
  while !continue_ && !r < width && t.head < t.tail do
    let i = t.head in
    let s = slot t i in
    match Trace.kind t.trace i with
    | Trace.Barrier_op ->
        let b = Trace.aux t.trace i in
        if t.sh.reached.(t.proc) < b then begin
          t.sh.reached.(t.proc) <- b;
          (* shared state changed: other processors may now pass the
             barrier, so this cycle cannot be skipped over, and cores
             sleeping on a barrier must look again *)
          t.sh.barrier_epoch <- t.sh.barrier_epoch + 1;
          t.progressed <- true
        end;
        if barrier_satisfied t b then begin
          t.head <- i + 1;
          t.retired_count <- t.retired_count + 1;
          t.progressed <- true;
          incr r
        end
        else begin
          stall := Sync_stall;
          continue_ := false
        end
    | kind ->
        if t.state.(s) = 1 && t.done_at.(s) <= now then begin
          t.head <- i + 1;
          t.retired_count <- t.retired_count + 1;
          t.progressed <- true;
          incr r
        end
        else begin
          stall :=
            (match kind with
            | Trace.Load | Trace.Store -> Data_stall
            | Trace.Int_op | Trace.Fp_op | Trace.Branch | Trace.Prefetch_op ->
                Cpu_stall
            | Trace.Barrier_op -> Sync_stall);
          continue_ := false
        end
  done;
  t.stall <- !stall;
  let busy_frac = float_of_int !r /. float_of_int width in
  t.bd.Breakdown.busy <- t.bd.Breakdown.busy +. busy_frac;
  let stall_frac = 1.0 -. busy_frac in
  if stall_frac > 0.0 then charge t !stall stall_frac

let dep_done t ~now d =
  d < 0 || d < t.head
  ||
  let s = slot t d in
  t.state.(s) = 1 && t.done_at.(s) <= now

(* Move every sleeper whose wake time has arrived back into the pending
   list, preserving trace order (popped indices are sorted, then merged
   into the — also sorted — list in one pass). From its wake cycle on, an
   entry is re-examined every executed cycle exactly as if it had never
   left the list. *)
let wake_sleepers t ~now =
  let batch = ref [] in
  while Pqueue.min_prio t.wake_heap <= now do
    let i = Pqueue.min_value t.wake_heap in
    Pqueue.drop_min t.wake_heap;
    if i >= t.head then batch := i :: !batch
  done;
  match !batch with
  | [] -> ()
  | b ->
      let sorted = match b with [ _ ] -> b | _ -> List.sort_uniq compare b in
      let prev = ref (-1) in
      let cur = ref t.pend_head in
      List.iter
        (fun i ->
          while !cur >= 0 && !cur < i do
            prev := !cur;
            cur := t.pend_next.(slot t !cur)
          done;
          if !cur <> i then begin
            t.pend_next.(slot t i) <- !cur;
            if !prev < 0 then t.pend_head <- i
            else t.pend_next.(slot t !prev) <- i;
            if !cur < 0 then t.pend_last <- i;
            prev := i
          end)
        sorted

(* [i] (slot [s]) is blocked on dependence [d], which just failed
   [dep_done]. If [d] has a known earliest-completion time in the future
   ([d] is issued, or itself asleep until then), [i] cannot issue before
   that cycle either — [d]'s [done_at] is only assigned when it issues —
   so park [i] until then. Returns true when [i] went to sleep. *)
(* Sleeping is only worth its heap-and-merge overhead when the wait is
   long (a memory-latency block); an instruction blocked a few cycles on
   an ALU/FPU result is cheaper to re-check in place, so it stays in the
   list. *)
let sleep_horizon = 32

let try_sleep t ~now i s d =
  let sd = slot t d in
  let w =
    if t.state.(sd) = 1 then t.done_at.(sd) else t.sleep_until.(sd)
  in
  if w > now + sleep_horizon then begin
    t.sleep_until.(s) <- w;
    Pqueue.push t.wake_heap w i;
    true
  end
  else false

(* The scan walks the pending list — exactly the [state = 0] entries of
   the old whole-window scan, in the same (trace) order; already-issued
   entries were side-effect-free no-ops there, so skipping them changes
   nothing, and skipped sleepers provably fail their dependence check
   until they return. An instruction that issues is unlinked; an entry
   whose trace index dropped below [head] is a barrier that retired
   without issuing (the only kind that can); retirement is in-order, so
   such entries form a prefix of the list and are dropped before the scan
   — which also keeps [fetch]'s slot reuse from clobbering a live link. *)
let issue t ~now =
  while t.pend_head >= 0 && t.pend_head < t.head do
    t.pend_head <- t.pend_next.(slot t t.pend_head)
  done;
  if t.pend_head < 0 then t.pend_last <- -1;
  wake_sleepers t ~now;
  let cfg = cfg_of t in
  let issue_width = cfg.Config.issue_width in
  let alus = cfg.Config.alus
  and fpus = cfg.Config.fpus
  and addr_units = cfg.Config.addr_units in
  let no_barriers = not t.has_barriers in
  let issued = ref 0 in
  let alu = ref 0 and fpu = ref 0 and mem_u = ref 0 in
  let mark_issued s =
    t.state.(s) <- 1;
    t.progressed <- true;
    (* completion feeds [next_event]; stale entries are drained in [step] *)
    Pqueue.push t.done_heap t.done_at.(s) ();
    incr issued
  in
  let prev = ref (-1) in
  let cur = ref t.pend_head in
  while
    !cur >= 0
    && !issued < issue_width
    && not (no_barriers && !alu >= alus && !fpu >= fpus && !mem_u >= addr_units)
  do
    let i = !cur in
    let s = slot t i in
    let next = t.pend_next.(s) in
    let before = !issued in
    let remove = ref false in
    (* [dep_done] is monotone, so an instruction whose cached blocking
       dependence is still pending cannot issue; skip it with a single
       check (everything skipped is side-effect-free) *)
    let b = t.blocker.(s) in
    (if b >= 0 && not (dep_done t ~now b) then
       (if try_sleep t ~now i s b then remove := true)
     else begin
       if b >= 0 then t.blocker.(s) <- -1;
       (* check the (cheap) functional-unit constraint before the
          dependence lookups: a unit-starved kind can never issue,
          whatever its dependences, and none of these checks has side
          effects *)
       let kind = Trace.kind t.trace i in
       let unit_free =
         match kind with
         | Trace.Int_op | Trace.Branch -> !alu < alus
         | Trace.Fp_op -> !fpu < fpus
         | Trace.Load | Trace.Store | Trace.Prefetch_op -> !mem_u < addr_units
         | Trace.Barrier_op -> true
       in
       if unit_free then begin
         let d1 = Trace.dep1 t.trace i in
         if not (dep_done t ~now d1) then begin
           t.blocker.(s) <- d1;
           if try_sleep t ~now i s d1 then remove := true
         end
         else
           let d2 = Trace.dep2 t.trace i in
           if not (dep_done t ~now d2) then begin
             t.blocker.(s) <- d2;
             if try_sleep t ~now i s d2 then remove := true
           end
           else
             match kind with
             | Trace.Int_op ->
                 incr alu;
                 t.done_at.(s) <- now + 1;
                 mark_issued s
             | Trace.Branch ->
                 incr alu;
                 t.done_at.(s) <- now + 1;
                 t.branches <- max 0 (t.branches - 1);
                 mark_issued s
             | Trace.Fp_op ->
                 incr fpu;
                 t.done_at.(s) <- now + Trace.aux t.trace i;
                 mark_issued s
             | Trace.Load -> (
                 match Hierarchy.read t.h ~now (Trace.aux t.trace i) with
                 | Some ready ->
                     incr mem_u;
                     t.done_at.(s) <- ready;
                     mark_issued s
                 | None ->
                     (* MSHRs full: retry next cycle *)
                     t.retries <- t.retries + 1)
             | Trace.Store ->
                 if wbuf_occupancy t >= cfg.Config.write_buffer then begin
                   (* count each store that stalls on a full write buffer
                      once, not once per retry cycle *)
                   if not t.wstalled.(s) then begin
                     t.wstalled.(s) <- true;
                     t.wbuf_full_events <- t.wbuf_full_events + 1
                   end
                 end
                 else begin
                   incr mem_u;
                   Queue.push (Trace.aux t.trace i) t.wpending;
                   t.done_at.(s) <- now;
                   mark_issued s
                 end
             | Trace.Prefetch_op ->
                 incr mem_u;
                 Hierarchy.prefetch t.h ~now (Trace.aux t.trace i);
                 t.done_at.(s) <- now;
                 mark_issued s
             | Trace.Barrier_op ->
                 t.done_at.(s) <- now;
                 t.state.(s) <- 1;
                 t.progressed <- true;
                 remove := true
       end
     end);
    if !issued > before then remove := true;
    if !remove then begin
      if !prev < 0 then t.pend_head <- next
      else t.pend_next.(slot t !prev) <- next;
      if next < 0 then t.pend_last <- !prev
    end
    else prev := i;
    cur := next
  done

let fetch t =
  let cfg = cfg_of t in
  let len = Trace.length t.trace in
  let fetched = ref 0 in
  while
    t.tail < len
    && t.tail - t.head < cfg.Config.window
    && !fetched < cfg.Config.fetch_width
    && t.branches < cfg.Config.max_branches
  do
    let s = slot t t.tail in
    t.state.(s) <- 0;
    t.done_at.(s) <- 0;
    t.wstalled.(s) <- false;
    t.blocker.(s) <- -1;
    t.sleep_until.(s) <- -1;
    (* append to the pending list; [issue] ran earlier this cycle and
       dropped every retired entry, so no live link uses this slot *)
    t.pend_next.(s) <- -1;
    if t.pend_last < 0 then t.pend_head <- t.tail
    else t.pend_next.(slot t t.pend_last) <- t.tail;
    t.pend_last <- t.tail;
    (match Trace.kind t.trace t.tail with
    | Trace.Branch -> t.branches <- t.branches + 1
    | _ -> ());
    t.tail <- t.tail + 1;
    t.progressed <- true;
    incr fetched
  done

let finished t =
  t.head >= Trace.length t.trace
  && Queue.is_empty t.wpending
  && Pqueue.is_empty t.winflight

let step t ~now =
  t.progressed <- false;
  t.stall <- Uncharged;
  t.retries <- 0;
  cleanup_mshrs t ~now;
  drain_done t ~now;
  drain_wbuf t ~now;
  if t.head < Trace.length t.trace then retire t ~now;
  issue t ~now;
  fetch t

let progressed t = t.progressed

(* A step with no progress leaves the core in a fixed point: every
   subsequent cycle up to (but excluding) its next completion event, or
   until the shared barrier state changes, re-runs the identical step.
   Its only effects are statistics: it retired nothing, so its whole
   retire width (1.0) went to one stall category, and every level miss
   it counted came from a load retried on full MSHRs, which missed every
   level (a hit at any level, or a coalesced in-flight miss, would have
   issued). Re-adding 1.0 per cycle and adding [times] at once give the
   same float: the stall fields hold small multiples of 1/retire_width. *)
let replay_idle t ~times =
  if times > 0 then begin
    charge t t.stall (float_of_int times);
    Hierarchy.replay_retry t.h ~retries:t.retries ~times
  end

(* Earliest future time any [<= now] comparison inside [step] can flip:
   an in-flight miss completing, a buffered write draining, or an issued
   instruction's result becoming available (which can unblock retire and
   dependent issues). Barrier release is not a timed event — it is
   triggered by another core's arrival, which bumps
   [shared.barrier_epoch] for the machine loop to observe. *)
let next_event t ~now =
  let ne = ref max_int in
  let consider at = if at > now && at < !ne then ne := at in
  consider (Hierarchy.next_completion t.h);
  consider (Pqueue.min_prio t.winflight);
  (* stale minima would hide the real next completion behind them *)
  drain_done t ~now;
  consider (Pqueue.min_prio t.done_heap);
  if !ne = max_int then None else Some !ne

let breakdown t = t.bd

let mshr_read_occupancy t = Hierarchy.read_occupancy t.h
let mshr_total_occupancy t = Hierarchy.total_occupancy t.h

let l2_misses t = Hierarchy.mem_misses t.h
let read_misses t = Hierarchy.read_misses t.h
let read_miss_latency_sum t = Hierarchy.read_miss_latency_sum t.h
let retired_instructions t = t.retired_count

let l1_misses t = Hierarchy.l1_misses t.h
let mshr_full_events t = Hierarchy.mshr_full_events t.h
let wbuf_full_events t = t.wbuf_full_events

let prefetches t = Hierarchy.prefetches t.h
let prefetch_misses t = Hierarchy.prefetch_misses t.h
let late_prefetches t = Hierarchy.late_prefetches t.h

let level_stats t = Hierarchy.level_stats t.h
let hierarchy_depth t = Hierarchy.depth t.h
let mshr_occupancy_by_level t = Hierarchy.mshr_occupancy_by_level t.h

let trace t = t.trace
let position t = t.head
