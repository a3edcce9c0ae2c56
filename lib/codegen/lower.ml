open Memclust_ir

type t = { traces : Trace.t array; barriers : int }

(* Dependence tokens pack (trace index, processor): tokens from another
   processor are dropped at use (the value is considered available). *)
let proc_bits = 6
let proc_mask = (1 lsl proc_bits) - 1

let check_nprocs nprocs =
  if nprocs < 1 || nprocs > proc_mask then
    invalid_arg
      (Printf.sprintf "Lower.build: %d processors (must be in [1, %d])" nprocs
         proc_mask)

let build ?(nprocs = 1) (p : Ast.program) data =
  check_nprocs nprocs;
  let traces = Array.init nprocs (fun _ -> Trace.create ()) in
  let cur = ref 0 in
  let barriers = ref 0 in
  let tok idx = (idx lsl proc_bits) lor !cur in
  let local t =
    if t < 0 then -1
    else if t land proc_mask = !cur then t lsr proc_bits
    else -1
  in
  let push ~kind ~aux ~ref_ d1 d2 =
    tok
      (Trace.push traces.(!cur) ~kind ~aux ~dep1:(local d1) ~dep2:(local d2)
         ~ref_)
  in
  let emit =
    {
      Exec.e_int = (fun d1 d2 -> push ~kind:Trace.Int_op ~aux:1 ~ref_:0 d1 d2);
      e_fp = (fun ~lat d1 d2 -> push ~kind:Trace.Fp_op ~aux:lat ~ref_:0 d1 d2);
      e_load =
        (fun ~ref_id ~addr d1 d2 ->
          push ~kind:Trace.Load ~aux:addr ~ref_:ref_id d1 d2);
      e_store =
        (fun ~ref_id ~addr d1 d2 ->
          push ~kind:Trace.Store ~aux:addr ~ref_:ref_id d1 d2);
      e_prefetch =
        (fun ~ref_id ~addr d1 d2 ->
          ignore (push ~kind:Trace.Prefetch_op ~aux:addr ~ref_:ref_id d1 d2));
      e_branch =
        (fun d1 d2 -> ignore (push ~kind:Trace.Branch ~aux:1 ~ref_:0 d1 d2));
      e_barrier =
        (fun () ->
          if nprocs > 1 then begin
            incr barriers;
            let id = !barriers in
            let saved = !cur in
            for p = 0 to nprocs - 1 do
              cur := p;
              ignore (push ~kind:Trace.Barrier_op ~aux:id ~ref_:0 (-1) (-1))
            done;
            cur := saved
          end);
      e_set_proc = (fun p -> cur := Int.min (nprocs - 1) (Int.max 0 p));
    }
  in
  Exec.run ~emit ~nprocs p data;
  { traces; barriers = !barriers }

let total_instructions t =
  Array.fold_left (fun acc tr -> acc + Trace.length tr) 0 t.traces
