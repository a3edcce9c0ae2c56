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

let add_trace ?(line_size = 64) lines acc trace =
  let acc = ref acc in
  for i = 0 to Trace.length trace - 1 do
    let a = !acc in
    (match Trace.kind trace i with
    | Trace.Int_op -> acc := { a with int_ops = a.int_ops + 1 }
    | Trace.Fp_op -> acc := { a with fp_ops = a.fp_ops + 1 }
    | Trace.Load ->
        Hashtbl.replace lines (Trace.aux trace i / line_size) ();
        acc := { a with loads = a.loads + 1 }
    | Trace.Store ->
        Hashtbl.replace lines (Trace.aux trace i / line_size) ();
        acc := { a with stores = a.stores + 1 }
    | Trace.Branch -> acc := { a with branches = a.branches + 1 }
    | Trace.Barrier_op -> acc := { a with barriers = a.barriers + 1 }
    | Trace.Prefetch_op -> acc := { a with prefetches = a.prefetches + 1 });
    acc := { !acc with total = !acc.total + 1 }
  done;
  !acc

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
