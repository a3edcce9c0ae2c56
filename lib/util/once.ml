type 'a t = { cell : 'a option Atomic.t; lock : Mutex.t; compute : unit -> 'a }

let make compute = { cell = Atomic.make None; lock = Mutex.create (); compute }
let peek t = Atomic.get t.cell

let force t =
  match Atomic.get t.cell with
  | Some v -> v
  | None ->
      Mutex.protect t.lock (fun () ->
          match Atomic.get t.cell with
          | Some v -> v
          | None ->
              let v = t.compute () in
              Atomic.set t.cell (Some v);
              v)
