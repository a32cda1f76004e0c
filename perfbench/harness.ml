(* The repository benchmark: one process, one domain, one closed-loop
   client. See README.md for the workloads, the metrics and the
   predictions that tie them together.

   harness.exe --workload <serve-churn|kv-hot-write|traverse|all>
               --seed <n> --seconds <s> --trace <0|1>
   harness.exe --selftest

   Human-readable lines come first; the last line of standard output
   is one JSON object: {"correct", "attempted", "failed", "metrics"}. *)

module Json = Core.Json
module Repr = Core.Repr

let out_dir = ".perfbench_out"

(* [error_rate] and [rank_inversions] are printed but left out of the
   JSON line ([json = false]): both are 0 on a healthy tree, which
   leaves no median to bound a change against. [correct]/[failed]
   carry the error rate instead. *)
type e2e = {
  name : string;
  unit : string;
  clock : string;
  better : string;
  json : bool;
  value : float;
}

let metric ?(better = "lower") ?(json = true) name unit clock value =
  { name; unit; clock; better; json; value }

let e2e_metrics workload (o : Outcome.t) =
  let sim k = List.assoc k o.sim in
  let per_repr label f =
    List.map
      (fun k ->
        metric
          (Printf.sprintf "%s.%s" label (Repr.to_string k))
          "cycles" "simulated" (f (sim k)))
      Kvload.reprs
  in
  let order f =
    Stats.rank_inversions
      ~normal:(f (sim Repr.Normal))
      ~riv:(f (sim Repr.Riv))
      ~fat:(f (sim Repr.Fat))
  in
  let inversions =
    if workload = "traverse" then order (fun s -> s.Outcome.per_op)
    else order (fun s -> s.Outcome.p50)
  in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1e6
  in
  [
    metric ~better:"higher" "ops_per_s" "1/s" "host" (Outcome.rate o.plain);
    metric "setup_s" "s" "host" (Stats.median_float o.setups_s);
    metric "peak_heap_mb" "MB" "host" heap_mb;
    metric ~json:false "error_rate" "ratio" "oracle"
      (Stats.ratio o.failed o.attempted);
  ]
  @ per_repr "sim_p50_cycles" (fun s -> s.Outcome.p50)
  @ per_repr "sim_p99_cycles" (fun s -> s.Outcome.p99)
  @ per_repr "sim_cycles_per_op" (fun s -> s.Outcome.per_op)
  @ [
      metric ~json:false "rank_inversions" "count" "simulated"
        (float_of_int inversions);
      metric "paper_gap" "ln" "simulated" (Stats.paper_gap o.paper);
    ]

(* Per-layer metrics: name, unit, and the end-to-end metric and
   workload each should move. Every traced run reports all of them; a
   layer a workload does not exercise reads 0. *)
let serve_moves = "ops_per_s, sim_p50/p99_cycles.* on serve-churn"
let reopen_moves = serve_moves ^ "; no reopens on kv-hot-write"

let recover_moves =
  "sim_p50/p99_cycles.*, ops_per_s, rank_inversions on serve-churn"

let alloc_moves = "ops_per_s, sim_p50_cycles.* on kv-hot-write"
let kv_moves = "kv-hot-write (put/delete), serve-churn (get on hits)"
let trav_moves = "ops_per_s, sim_cycles_per_op.*, paper_gap on traverse"
let probe_moves = "ops_per_s on traverse, then on the serve workloads"
let host_moves = "ops_per_s on all three workloads"
let cache_moves = "sim_* on all three workloads"

let layer_catalog =
  [
    ("server.residency.hit_ratio", "ratio", serve_moves);
    ("server.residency.hit_us", "us", serve_moves);
    ("server.residency.hit_cycles", "cycles", serve_moves);
    ("server.residency.reopen_us", "us", reopen_moves);
    ("server.residency.reopen_cycles", "cycles", reopen_moves);
    ("server.evictions_per_op", "count", serve_moves);
    ("nvregion.maps_per_op", "count", serve_moves);
    ("palloc.recovered_blocks_per_reopen", "count", recover_moves);
    ("palloc.allocs_per_op", "count", alloc_moves);
    ("palloc.frees_per_op", "count", alloc_moves);
  ]
  @ List.concat_map
      (fun op ->
        [
          (Printf.sprintf "apps.kvstore.%s_us" op, "us", kv_moves);
          (Printf.sprintf "apps.kvstore.%s_cycles" op, "cycles", kv_moves);
        ])
      [ "get"; "put"; "delete" ]
  @ [
      ("tx.flushes_per_put", "count", kv_moves);
      ("tx.fences_per_put", "count", kv_moves);
    ]
  @ List.map
      (fun s ->
        let name = Printf.sprintf "structures.%s.traverse_ns_per_node" s in
        (name, "ns", trav_moves))
      [ "list"; "btree"; "hashset"; "trie" ]
  @ [
      ("core.riv.base_table_loads_per_op", "count", trav_moves);
      ("core.fat.probe_loads_per_op", "count", trav_moves);
    ]
  @ List.concat_map
      (fun k ->
        let r = Repr.to_string k in
        [
          ("core.deref_ns." ^ r, "ns", probe_moves);
          ("core.deref_cycles." ^ r, "cycles", probe_moves);
        ])
      Repr.all
  @ [
      ("memsim.load64_ns", "ns", probe_moves);
      ("memsim.load64_tlb_miss_ns", "ns", probe_moves);
      ("cachesim.access_ns", "ns", probe_moves);
      ("nvregion.reopen_us", "us", probe_moves);
      ("memsim.accesses_per_op", "count", host_moves);
      ("memsim.ns_per_access", "ns", host_moves);
      ("cachesim.l1_miss_ratio", "ratio", cache_moves);
      ("cachesim.l2_miss_ratio", "ratio", cache_moves);
      ("cachesim.nvm_reads_per_op", "count", cache_moves);
      ("cachesim.nvm_writes_per_op", "count", cache_moves);
      ("runtime.minor_words_per_op", "count", host_moves);
      ("bench.trace_overhead", "ratio", "none (traced / untraced ops_per_s)");
    ]

let workloads = [ "serve-churn"; "kv-hot-write"; "traverse" ]

let run_workload name ~seed ~seconds ~tracer =
  match name with
  | "serve-churn" -> Kvload.run Kvload.serve_churn ~seed ~seconds ~tracer ()
  | "kv-hot-write" -> Kvload.run Kvload.kv_hot_write ~seed ~seconds ~tracer ()
  | _ -> Traverse.run ~seed ~seconds ~tracer

(* Host fingerprint recorded with every result. *)
let cpu_model () =
  let prefix = "model name" in
  let n = String.length prefix in
  try
    let ic = open_in "/proc/cpuinfo" in
    let rec find () =
      match input_line ic with
      | line when String.length line > n && String.sub line 0 n = prefix ->
          String.trim (List.nth (String.split_on_char ':' line) 1)
      | _ -> find ()
      | exception End_of_file -> "unknown"
    in
    let m = find () in
    close_in ic;
    m
  with Sys_error _ -> "unknown"

let fingerprint () =
  [
    ("nproc", Json.Int (Domain.recommended_domain_count ()));
    ("ocaml", Json.String Sys.ocaml_version);
    ("cpu_model", Json.String (cpu_model ()));
  ]

let out_file name =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  Filename.concat out_dir name

(* Determinism self-check: the simulated values of a (binary, workload,
   seed) triple are stored on first sight and must repeat exactly on
   every later run, traced or not. A mismatch means the harness
   perturbed the simulator. *)
let check_determinism ~workload ~seed metrics =
  let text =
    String.concat ""
      (List.filter_map
         (fun m ->
           if m.clock = "simulated" then
             Some (Printf.sprintf "%s=%.17g\n" m.name m.value)
           else None)
         metrics)
  in
  let exe = Digest.to_hex (Digest.file Sys.executable_name) in
  let path = out_file (Printf.sprintf "sim-%s-%s-%d.txt" exe workload seed) in
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let prev = really_input_string ic (in_channel_length ic) in
    close_in ic;
    if prev <> text then begin
      Printf.eprintf
        "DETERMINISM FAILURE: simulated metrics of %s seed %d differ from \
         an earlier run of this binary.\n\
         earlier:\n\
         %snow:\n\
         %s%!"
        workload seed prev text;
      exit 3
    end;
    "repeat-verified"
  end
  else begin
    let oc = open_out_bin path in
    output_string oc text;
    close_out oc;
    "recorded"
  end

let blocks_json (o : Outcome.t) =
  Json.Obj
    (List.map
       (fun (b : Outcome.blocks) ->
         ( b.label,
           Json.Obj
             [
               ("ops", Json.Int b.ops);
               ("ns", Json.List (List.rev_map (fun t -> Json.Int t) b.times));
             ] ))
       o.plain)

let report ~workload ~seed ~seconds ~trace =
  let tracer = if trace then Some (Tracer.create ()) else None in
  let o = run_workload workload ~seed ~seconds ~tracer in
  let metrics = e2e_metrics workload o in
  let determinism = check_determinism ~workload ~seed metrics in
  Printf.printf "== %s (seed %d, %d s, trace %d) ==\n" workload seed seconds
    (Bool.to_int trace);
  Printf.printf "traffic: %s\n"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%.4f" k v) o.traffic));
  Printf.printf "oracle: attempted=%d failed=%d; sim determinism %s\n"
    o.attempted o.failed determinism;
  let layers =
    match tracer with
    | None -> []
    | Some tr ->
        Tracer.write tr
          (out_file (Printf.sprintf "spans-%s-%d.tsv" workload seed));
        let got = o.layers @ Probes.run () in
        List.map
          (fun (name, unit, moves) ->
            let v = Option.value ~default:0.0 (List.assoc_opt name got) in
            (name, unit, moves, v))
          layer_catalog
  in
  if trace then
    List.iter
      (fun (name, unit, moves, v) ->
        Printf.printf "  %-40s %14.6g %-7s moves: %s\n" name v unit moves)
      layers
  else
    List.iter
      (fun m ->
        Printf.printf "  %-28s %16.6g %-7s %-9s better: %s\n" m.name m.value
          m.unit m.clock m.better)
      metrics;
  let json_metrics =
    if trace then List.map (fun (name, unit, _, v) -> (name, unit, v)) layers
    else
      List.filter_map
        (fun m -> if m.json then Some (m.name, m.unit, m.value) else None)
        metrics
  in
  Json.to_file
    (out_file
       (Printf.sprintf "result-%s-%d-trace%d.json" workload seed
          (Bool.to_int trace)))
    (Json.Obj
       [
         ("workload", Json.String workload);
         ("seed", Json.Int seed);
         ("seconds", Json.Int seconds);
         ("trace", Json.Bool trace);
         ("host", Json.Obj (fingerprint ()));
         ("attempted", Json.Int o.attempted);
         ("failed", Json.Int o.failed);
         ( "traffic",
           Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) o.traffic) );
         ("blocks_ns", blocks_json o);
         ( "metrics",
           Json.Obj
             (List.map (fun m -> (m.name, Json.Float m.value)) metrics
             @ List.map (fun (n, _, _, v) -> (n, Json.Float v)) layers) );
       ]);
  Printf.printf "host: %s\n%!"
    (Json.to_string ~compact:true (Json.Obj (fingerprint ())));
  (o, json_metrics)

let json_line ~correct ~attempted ~failed metrics =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, unit, v) ->
               ( name,
                 Json.Obj
                   [ ("value", Json.Float v); ("unit", Json.String unit) ] ))
             metrics) );
    ]

(* A corrupted reference value must show as failures, an intact one
   must not, and tracing must not move a simulated cycle. *)
let selftest () =
  let spec =
    {
      Kvload.kv_hot_write with
      tenants = 8;
      cap = 4;
      keys = 8;
      read = 0.5;
      update = 0.2;
      insert = 0.1;
      sim_ops = 2 * Kvload.block;
    }
  in
  let run ~corrupt ~tracer =
    Kvload.run spec ~seed:7 ~seconds:0 ~tracer ~corrupt ~reprs:[ Repr.Riv ] ()
  in
  let clean = run ~corrupt:false ~tracer:None in
  let corrupt = run ~corrupt:true ~tracer:None in
  let traced = run ~corrupt:false ~tracer:(Some (Tracer.create ())) in
  let checks =
    [
      ( "intact reference: error_rate = 0",
        clean.failed = 0 && clean.attempted > 0 );
      ("corrupted reference: error_rate > 0", corrupt.failed > 0);
      ("traced run: same simulated cycles", clean.sim = traced.sim);
      ( "reopens happen under cap < tenants",
        List.assoc "residency_miss_share" clean.traffic > 0.0 );
    ]
  in
  List.iter
    (fun (name, ok) ->
      Printf.printf "%s: %s\n" (if ok then "ok" else "FAIL") name)
    checks;
  if List.exists (fun (_, ok) -> not ok) checks then exit 1

let () =
  (* A tighter major-GC target than OCaml's default (120) keeps
     serve-churn's peak near 450 MB instead of 650 MB: every reopen
     copies a 64 KiB region image, which is short-lived garbage. *)
  Gc.set { (Gc.get ()) with Gc.space_overhead = 60 };
  let workload = ref "" and seed = ref 42 and seconds = ref 20 in
  let trace = ref 0 and self = ref false in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        " serve-churn | kv-hot-write | traverse | all" );
      ("--seed", Arg.Set_int seed, " workload seed (default 42)");
      ("--seconds", Arg.Set_int seconds, " timed-phase length (default 20)");
      ("--trace", Arg.Set_int trace, " 1 = traced run, per-layer metrics");
      ("--selftest", Arg.Set self, " run the oracle self-test");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "harness.exe --workload W --seed N --seconds S --trace 0|1";
  if !self then selftest ()
  else begin
    let names =
      match !workload with
      | "all" -> workloads
      | w when List.mem w workloads -> [ w ]
      | w ->
          Printf.eprintf "unknown workload %S\n" w;
          exit 2
    in
    if !seconds < 0 then begin
      prerr_endline "--seconds must be >= 0";
      exit 2
    end;
    let results =
      List.map
        (fun w ->
          let trace = !trace = 1 in
          (w, report ~workload:w ~seed:!seed ~seconds:!seconds ~trace))
        names
    in
    let total f = List.fold_left (fun a (_, (o, _)) -> a + f o) 0 results in
    let failed = total (fun o -> o.Outcome.failed) in
    let metrics =
      match results with
      | [ (_, (_, m)) ] -> m
      | _ ->
          List.concat_map
            (fun (w, (_, m)) ->
              List.map (fun (n, u, v) -> (w ^ "." ^ n, u, v)) m)
            results
    in
    print_endline
      (Json.to_string ~compact:true
         (json_line ~correct:(failed = 0)
            ~attempted:(total (fun o -> o.Outcome.attempted))
            ~failed metrics))
  end
