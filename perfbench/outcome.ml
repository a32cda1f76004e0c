(* What one workload run hands back to the report. *)

type sim = {
  p50 : float;  (** nearest-rank per-op simulated cycles *)
  p99 : float;
  per_op : float;  (** simulated cycles per op over the fixed prefix *)
}

(* The timed phase runs in blocks of one kind of work each: 256
   requests of one representation, or one traversal of one structure
   under one representation. In the traced run, blocks after the
   deterministic prefix alternate between traced and untraced. *)
type blocks = {
  label : string;  (** representation, or representation/structure *)
  mutable ops : int;
  mutable times : int list;  (** host ns of each block *)
  mutable accesses : int;  (** simulated memory accesses *)
  mutable minor_words : float;  (** host allocation *)
}

let blocks label =
  { label; ops = 0; times = []; accesses = 0; minor_words = 0.0 }

let accesses m =
  let metrics = Core.Machine.metrics m in
  Core.Metrics.get metrics "mem.loads" + Core.Metrics.get metrics "mem.stores"

(* Runs [f] on machine [m] as one block of [b]; [f] returns its op
   count. *)
let record b m f =
  let a0 = accesses m and w0 = Gc.minor_words () in
  let t0 = Nvmpi_parsweep.Wall.now_ns () in
  let ops = f () in
  b.times <- (Nvmpi_parsweep.Wall.now_ns () - t0) :: b.times;
  b.ops <- b.ops + ops;
  b.accesses <- b.accesses + (accesses m - a0);
  b.minor_words <- b.minor_words +. (Gc.minor_words () -. w0)

let ns b = List.fold_left ( + ) 0 b.times

(* Host throughput in ops/s: the summed block sizes of all block kinds
   over their summed 90th-percentile block times, i.e. the throughput
   sustained by 9 blocks in 10. On a shared host whose speed switches
   between levels for seconds at a time, the 90th percentile settles on
   the slower, dominant level; the median flips between levels from one
   run to the next. *)
let rate bs =
  let ops, ns =
    List.fold_left
      (fun (ops, ns) b ->
        match b.times with
        | [] -> (ops, ns)
        | times ->
            let n = float_of_int (List.length times) in
            let p90 =
              Stats.percentile (Array.of_list (List.map float_of_int times)) 90
            in
            (ops +. (float_of_int b.ops /. n), ns +. p90))
      (0.0, 0.0) bs
  in
  Stats.fratio ops (ns /. 1e9)

type t = {
  attempted : int;  (** ops issued plus oracle checks made *)
  failed : int;  (** ops or checks whose output disagreed with the oracle *)
  plain : blocks list;  (** untraced blocks, one entry per block kind *)
  traced : blocks list;
  setups_s : float list;  (** one host set-up time per representation *)
  sim : (Core.Repr.kind * sim) list;
  paper : (float * float) list;
      (** (measured slowdown over normal, paper value) pairs behind
          [paper_gap] *)
  traffic : (string * float) list;  (** traffic-property report *)
  layers : (string * float) list;  (** per-layer metrics; traced run only *)
}

(* Per-layer figures shared by the workloads. [total name] is a counter
   delta summed over the timed phases; [one kind name] is the delta of
   one representation per op of that representation. *)
let counter_layers ~total ~one ~ops =
  let per_op name = Stats.ratio (total name) ops in
  let miss_ratio level =
    let m = total (Printf.sprintf "cache.%s.misses" level) in
    Stats.ratio m (m + total (Printf.sprintf "cache.%s.hits" level))
  in
  [
    ( "core.riv.base_table_loads_per_op",
      one Core.Repr.Riv "riv.base_table_loads" );
    ("core.fat.probe_loads_per_op", one Core.Repr.Fat "fat.probe_loads");
    ( "memsim.accesses_per_op",
      Stats.ratio (total "mem.loads" + total "mem.stores") ops );
    ("cachesim.l1_miss_ratio", miss_ratio "l1");
    ("cachesim.l2_miss_ratio", miss_ratio "l2");
    ("cachesim.nvm_reads_per_op", per_op "mem.nvm_reads");
    ("cachesim.nvm_writes_per_op", per_op "mem.nvm_writes");
  ]

let host_layers o =
  let sum f = List.fold_left (fun acc b -> acc + f b) 0 o.plain in
  let words = List.fold_left (fun acc b -> acc +. b.minor_words) 0.0 o.plain in
  (* Only block kinds timed both ways enter the overhead ratio. *)
  let both =
    List.filter
      (fun (p, t) -> p.times <> [] && t.times <> [])
      (List.combine o.plain o.traced)
  in
  let ops = float_of_int (sum (fun b -> b.ops)) in
  [
    ("memsim.ns_per_access", Stats.ratio (sum ns) (sum (fun b -> b.accesses)));
    ("runtime.minor_words_per_op", Stats.fratio words ops);
    ( "bench.trace_overhead",
      Stats.fratio (rate (List.map snd both)) (rate (List.map fst both)) );
  ]
