type 'a t = {
  name : string;
  cap : int;
  tbl : (string, 'a) Hashtbl.t;
  order : string Queue.t;  (* insertion order, for FIFO eviction *)
  lock : Mutex.t;
}

let content_digest v =
  Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

(* Process-wide registry: name plus closures over each cache's heterogeneous
   payload type, so [clear_all]/[registered] work across caches of any 'a. *)
let registry : (string * (unit -> unit) * (unit -> int)) list ref = ref []
let registry_lock = Mutex.create ()

let locked lock f =
  Mutex.lock lock;
  match f () with
  | v ->
      Mutex.unlock lock;
      v
  | exception e ->
      Mutex.unlock lock;
      raise e

let clear t =
  locked t.lock (fun () ->
      Hashtbl.reset t.tbl;
      Queue.clear t.order)

let length t = locked t.lock (fun () -> Hashtbl.length t.tbl)

let create ?(cap = 512) ~name () =
  if cap <= 0 then invalid_arg "Analysis_cache.create: cap must be positive";
  let t =
    {
      name;
      cap;
      tbl = Hashtbl.create (min cap 64);
      order = Queue.create ();
      lock = Mutex.create ();
    }
  in
  locked registry_lock (fun () ->
      registry := !registry @ [ (name, (fun () -> clear t), fun () -> length t) ]);
  t

let name t = t.name
let cap t = t.cap

let find_opt t key = locked t.lock (fun () -> Hashtbl.find_opt t.tbl key)

let set t key v =
  locked t.lock (fun () ->
      if not (Hashtbl.mem t.tbl key) then begin
        while Queue.length t.order >= t.cap do
          Hashtbl.remove t.tbl (Queue.pop t.order)
        done;
        Queue.push key t.order
      end;
      Hashtbl.replace t.tbl key v)

let find_or_compute t key f =
  match find_opt t key with
  | Some v -> v
  | None ->
      let v = f () in
      set t key v;
      v

let clear_all () =
  let entries = locked registry_lock (fun () -> !registry) in
  List.iter (fun (_, clr, _) -> clr ()) entries

let registered () =
  let entries = locked registry_lock (fun () -> !registry) in
  List.map (fun (name, _, len) -> (name, len ())) entries
