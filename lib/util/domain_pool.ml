type t = {
  m : Mutex.t;
  task_ready : Condition.t;
  tasks : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t array;
}

(* Tasks submitted from inside a worker run inline (see [map_result]), so
   a recursive [map_result] can never wait for a worker that is itself
   waiting. *)
let in_worker = Domain.DLS.new_key (fun () -> false)

let rec worker_loop t =
  Mutex.lock t.m;
  let rec get () =
    if t.stop then None
    else if Queue.is_empty t.tasks then begin
      Condition.wait t.task_ready t.m;
      get ()
    end
    else Some (Queue.pop t.tasks)
  in
  match get () with
  | None -> Mutex.unlock t.m
  | Some task ->
      Mutex.unlock t.m;
      (* tasks are wrapped by the batch runner and never raise *)
      task ();
      worker_loop t

let create ?domains () =
  let n =
    match domains with
    | Some d -> max 0 d
    | None -> max 0 (Domain.recommended_domain_count () - 1)
  in
  let t =
    {
      m = Mutex.create ();
      task_ready = Condition.create ();
      tasks = Queue.create ();
      stop = false;
      workers = [||];
    }
  in
  t.workers <-
    Array.init n (fun _ ->
        Domain.spawn (fun () ->
            Domain.DLS.set in_worker true;
            worker_loop t));
  t

let size t = Array.length t.workers

(* Schedule [run 0 .. run (n-1)] on the pool and wait for all of them.
   [run] must not raise. The caller works through the queue too; when it
   empties (tasks may still be running in workers) it waits for the batch
   to settle. *)
let run_batch t n run =
  let remaining = ref n in
  let batch_done = Condition.create () in
  let wrapped i =
    run i;
    Mutex.lock t.m;
    decr remaining;
    if !remaining = 0 then Condition.broadcast batch_done;
    Mutex.unlock t.m
  in
  Mutex.lock t.m;
  for i = 0 to n - 1 do
    Queue.push (fun () -> wrapped i) t.tasks
  done;
  Condition.broadcast t.task_ready;
  let rec help () =
    if !remaining > 0 then
      if not (Queue.is_empty t.tasks) then begin
        let task = Queue.pop t.tasks in
        Mutex.unlock t.m;
        task ();
        Mutex.lock t.m;
        help ()
      end
      else begin
        Condition.wait batch_done t.m;
        help ()
      end
  in
  help ();
  Mutex.unlock t.m

let inline_only t = Array.length t.workers = 0 || Domain.DLS.get in_worker

let attempt ~attempts ~task f x =
  let rec go k =
    match f x with
    | v -> Ok v
    | exception e ->
        if k < attempts then go (k + 1)
        else Result.Error (Error.of_exn ~task ~attempts e)
  in
  go 1

let map_result ?(attempts = 2) ?task_name t f xs =
  let attempts = max 1 attempts in
  let name i x =
    match task_name with
    | Some g -> g x
    | None -> Printf.sprintf "task-%d" i
  in
  match xs with
  | [] -> []
  | _ when inline_only t ->
      List.mapi (fun i x -> attempt ~attempts ~task:(name i x) f x) xs
  | _ ->
      let args = Array.of_list xs in
      let n = Array.length args in
      let results = Array.make n None in
      run_batch t n (fun i ->
          results.(i) <-
            Some (attempt ~attempts ~task:(name i args.(i)) f args.(i)));
      Array.to_list
        (Array.mapi
           (fun i r ->
             match r with
             | Some r -> r
             | None ->
                 Result.Error
                   (Error.Worker_crashed
                      {
                        task = name i args.(i);
                        attempts;
                        reason = "worker finished without recording a result";
                      }))
           results)

let shutdown t =
  Mutex.lock t.m;
  t.stop <- true;
  Condition.broadcast t.task_ready;
  Mutex.unlock t.m;
  let ws = t.workers in
  t.workers <- [||];
  Array.iter Domain.join ws

(* ------------------------------------------------------------------ *)

let default_pool = ref None
let default_m = Mutex.create ()

let default () =
  Mutex.lock default_m;
  let t =
    match !default_pool with
    | Some t -> t
    | None ->
        let t =
          match
            Option.bind (Sys.getenv_opt "MEMCLUST_DOMAINS") int_of_string_opt
          with
          | Some d -> create ~domains:d ()
          | None -> create ()
        in
        at_exit (fun () -> shutdown t);
        default_pool := Some t;
        t
  in
  Mutex.unlock default_m;
  t
