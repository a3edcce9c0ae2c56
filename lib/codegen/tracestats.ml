type t = {
  total : int;
  int_ops : int;
  fp_ops : int;
  loads : int;
  stores : int;
  branches : int;
  barriers : int;
  prefetches : int;
  distinct_lines : int;
}

let empty =
  {
    total = 0;
    int_ops = 0;
    fp_ops = 0;
    loads = 0;
    stores = 0;
    branches = 0;
    barriers = 0;
    prefetches = 0;
    distinct_lines = 0;
  }

(* the kind totals are the traces' push-time counts; only the distinct
   lines need a scan *)
let add_trace ~line_size lines acc trace =
  let n k = Trace.count_kind trace k in
  for i = 0 to Trace.length trace - 1 do
    match Trace.kind trace i with
    | Trace.Load | Trace.Store ->
        Hashtbl.replace lines (Trace.aux trace i / line_size) ()
    | _ -> ()
  done;
  {
    acc with
    total = acc.total + Trace.length trace;
    int_ops = acc.int_ops + n Trace.Int_op;
    fp_ops = acc.fp_ops + n Trace.Fp_op;
    loads = acc.loads + n Trace.Load;
    stores = acc.stores + n Trace.Store;
    branches = acc.branches + n Trace.Branch;
    barriers = acc.barriers + n Trace.Barrier_op;
    prefetches = acc.prefetches + n Trace.Prefetch_op;
  }

let of_lowered ?(line_size = 64) (l : Lower.t) =
  let lines = Hashtbl.create 1024 in
  let t =
    Array.fold_left (add_trace ~line_size lines) empty l.Lower.traces
  in
  { t with distinct_lines = Hashtbl.length lines }

let pp ppf t =
  Format.fprintf ppf
    "%d instrs: %d int, %d fp, %d loads, %d stores, %d branches, %d barriers, \
     %d prefetches; %d distinct lines"
    t.total t.int_ops t.fp_ops t.loads t.stores t.branches t.barriers
    t.prefetches t.distinct_lines
