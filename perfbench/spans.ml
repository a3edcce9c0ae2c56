(* In-memory span recorder for the traced benchmark run.

   A span is recorded around each call into a layer: its name, start and
   end (host seconds), the span that was open when it started, and the
   words the span allocated. Spans are kept in memory and written as JSON
   lines when the run ends. When tracing is off, [with_span] is a plain
   call: no clock read, no allocation. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 at top level *)
  start : float;
  stop : float;
  alloc_words : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let open_stack : int list ref = ref []
let next_id = ref 0

let now = Unix.gettimeofday

(* words allocated so far: minor + major - promoted, so a promoted block
   counts once *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let with_span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_stack with p :: _ -> p | [] -> -1 in
    open_stack := id :: !open_stack;
    let a0 = allocated_words () in
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now () in
        let a1 = allocated_words () in
        open_stack := List.tl !open_stack;
        recorded :=
          { id; name; parent; start = t0; stop = t1; alloc_words = a1 -. a0 }
          :: !recorded)
      f
  end

let all () = List.rev !recorded

let duration s = s.stop -. s.start

(* Self time of every span: its duration minus the durations of its
   direct children (children nest strictly inside their parent on one
   domain, so their intervals never overlap). *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt child s.parent) in
        Hashtbl.replace child s.parent (prev +. duration s))
    spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    spans

(* Sum of self time and of allocation over the spans whose name
   satisfies [pred]. *)
let self_seconds spans pred =
  List.fold_left
    (fun acc (s, self) -> if pred s.name then acc +. self else acc)
    0.0 (self_times spans)

let alloc_words spans pred =
  List.fold_left
    (fun acc s -> if pred s.name then acc +. s.alloc_words else acc)
    0.0 spans

let write ~run_id path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"run\":%S,\"id\":%d,\"name\":%S,\"parent\":%d,\"start\":%.9f,\"end\":%.9f,\"alloc_words\":%.0f}\n"
        run_id s.id s.name s.parent s.start s.stop s.alloc_words)
    spans;
  close_out oc
