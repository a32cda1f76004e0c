(* The two kvstore workloads: [serve-churn] (residency-bound reads over
   thousands of tenants) and [kv-hot-write] (write churn over tenants
   that all stay resident). One closed-loop client, one fresh machine
   per representation, set-up excluded from the timed phase. *)

module Machine = Core.Machine
module Metrics = Core.Metrics
module Repr = Core.Repr
module Residency = Nvmpi_server.Residency
module Kvstore = Nvmpi_apps.Kvstore
module Wall = Nvmpi_parsweep.Wall

type spec = {
  tenants : int;
  cap : int;  (** residency capacity *)
  keys : int;  (** base keys per tenant, provisioned in set-up *)
  value_bytes : int;
  read : float;
  update : float;
  insert : float;  (** deletes take the rest *)
  size_churn : bool;  (** value length varies per version *)
  theta : float;
  setups : int;  (** set-ups per representation behind [setup_s] *)
  warmup : int;  (** untimed requests that settle the residency set *)
  sim_ops : int;
      (** deterministic prefix behind the [sim_*] metrics; a multiple
          of [block] *)
}

let reprs = [ Repr.Normal; Repr.Riv; Repr.Fat ]
let block = 256

let serve_churn =
  {
    tenants = 2500;
    cap = 64;
    keys = 48;
    value_bytes = 64;
    read = 0.95;
    update = 0.05;
    insert = 0.0;
    size_churn = false;
    theta = 0.99;
    setups = 1;
    warmup = 2048;
    sim_ops = 32 * block;
  }

let kv_hot_write =
  {
    tenants = 48;
    cap = 64;
    keys = 48;
    value_bytes = 64;
    read = 0.3;
    update = 0.4;
    insert = 0.15;
    size_churn = true;
    theta = 0.99;
    setups = 5;
    warmup = 2048;
    sim_ops = 120 * block;
  }

let region_size = 64 * 1024
let buckets = 32
let log_cap = 4096

type op = Get | Put | Delete

type repr_run = {
  samples : int array;  (* simulated cycles of each prefix request *)
  setups_s : float list;
  ops : int;
  attempted : int;
  failed : int;
  hits : int;
  misses : int;
  delta : (string * int) list;  (* counter deltas over the timed phase *)
  plain : Outcome.blocks;
  traced : Outcome.blocks;
}

let run_repr spec ~seed ~repr ~slice_ns ~tracer ~corrupt =
  let expected ~tenant ~key version =
    Gen.value ~seed ~tenant ~key ~version ~max_len:spec.value_bytes
      ~size_churn:spec.size_churn
  in
  (* The oracle: key -> version of the value last written, per tenant. *)
  let setup () =
    let store = Core.Store.create () in
    let machine = Machine.create ~seed:(seed land 0xFFFFFF) ~store () in
    let res =
      Residency.create ~machine ~repr ~cap:spec.cap ~region_size ~buckets
        ~log_cap ()
    in
    let refs = Array.init spec.tenants (fun _ -> Hashtbl.create spec.keys) in
    for tenant = 0 to spec.tenants - 1 do
      let kv, _ = Residency.kv res ~tenant in
      for key = 1 to spec.keys do
        Kvstore.put kv ~key (expected ~tenant ~key 0);
        Hashtbl.replace refs.(tenant) key 0
      done
    done;
    (machine, res, refs)
  in
  (* Every set-up is timed and identical; the run continues on the last. *)
  let setups_s = ref [] and last = ref None in
  for _ = 1 to spec.setups do
    let s, ns = Wall.time setup in
    last := Some s;
    setups_s := Wall.ns_to_s ns :: !setups_s
  done;
  let machine, res, refs = Option.get !last in
  if corrupt then Hashtbl.replace refs.(0) 1 (-1);
  (* Identical streams for every representation. *)
  let st = Gen.rng ~seed ~tag:1 in
  let perm = Gen.permutation (Gen.rng ~seed ~tag:2) spec.tenants in
  let zt = Gen.Zipf.make ~n:spec.tenants ~theta:spec.theta in
  let zk = Gen.Zipf.make ~n:spec.keys ~theta:spec.theta in
  let cursor = Array.make spec.tenants 0 in
  let samples = Array.make spec.sim_ops 0 in
  let issued = ref 0 and failed = ref 0 and hits = ref 0 and misses = ref 0 in
  let span tracer ~parent name f =
    match tracer with
    | None -> f ()
    | Some tr ->
        let s = Tracer.start tr machine ~parent name in
        let r = f () in
        Tracer.finish tr machine s;
        r
  in
  let request tracer =
    let n = !issued in
    incr issued;
    let tenant = perm.(Gen.Zipf.next zt st) in
    let resident = Residency.is_resident res ~tenant in
    if n >= spec.warmup then if resident then incr hits else incr misses;
    let c0 = Machine.cycles machine in
    let root =
      Option.map (fun tr -> Tracer.start tr machine "request") tracer
    in
    let parent = match root with Some s -> s.Tracer.id | None -> 0 in
    let residency =
      if resident then "server.residency.hit" else "server.residency.reopen"
    in
    let kv =
      span tracer ~parent residency (fun () -> fst (Residency.kv res ~tenant))
    in
    let r = Random.State.float st 1.0 in
    let op =
      if r < spec.read then Get
      else if r < spec.read +. spec.update +. spec.insert then Put
      else Delete
    in
    let tbl = refs.(tenant) in
    (match op with
    | Get ->
        let key = 1 + Gen.Zipf.next zk st in
        let want =
          Option.map (expected ~tenant ~key) (Hashtbl.find_opt tbl key)
        in
        let got =
          span tracer ~parent "apps.kvstore.get" (fun () -> Kvstore.get kv ~key)
        in
        if got <> want then incr failed
    | Put ->
        let key =
          if r < spec.read +. spec.update then 1 + Gen.Zipf.next zk st
          else begin
            (* Inserts cycle through an extension window of fresh keys. *)
            let c = cursor.(tenant) in
            cursor.(tenant) <- c + 1;
            spec.keys + 1 + (c mod spec.keys)
          end
        in
        let version = n + 1 in
        let v = expected ~tenant ~key version in
        span tracer ~parent "apps.kvstore.put" (fun () ->
            Kvstore.put kv ~key v);
        Hashtbl.replace tbl key version
    | Delete ->
        let key = 1 + Gen.Zipf.next zk st in
        let want = Hashtbl.mem tbl key in
        let got =
          span tracer ~parent "apps.kvstore.delete" (fun () ->
              Kvstore.delete kv ~key)
        in
        if got <> want then incr failed;
        Hashtbl.remove tbl key);
    (match (tracer, root) with
    | Some tr, Some s -> Tracer.finish tr machine s
    | _ -> ());
    let i = n - spec.warmup in
    if i >= 0 && i < spec.sim_ops then
      samples.(i) <- Machine.cycles machine - c0
  in
  for _ = 1 to spec.warmup do
    request None
  done;
  let metrics = Machine.metrics machine in
  let before = Metrics.snapshot metrics in
  let label = Repr.to_string repr in
  let plain = Outcome.blocks label and traced = Outcome.blocks label in
  let run_block b tracer =
    Outcome.record b machine (fun () ->
        for _ = 1 to block do
          request tracer
        done;
        block)
  in
  let deadline = Wall.now_ns () + slice_ns in
  (* The prefix runs with tracing on in the traced run, so the traced
     and untraced [sim_*] values must agree exactly. Its blocks follow
     set-up directly, so the traced run leaves them out of the
     traced/untraced comparison. *)
  let prefix =
    match tracer with None -> plain | Some _ -> Outcome.blocks label
  in
  for _ = 1 to spec.sim_ops / block do
    run_block prefix tracer
  done;
  let toggle = ref false in
  while Wall.now_ns () < deadline do
    (match tracer with
    | Some _ when !toggle -> run_block traced tracer
    | _ -> run_block plain None);
    toggle := not !toggle
  done;
  let delta = Metrics.diff ~before ~after:(Metrics.snapshot metrics) in
  (* End-of-run oracle: every tenant's key set and values. *)
  for tenant = 0 to spec.tenants - 1 do
    let kv, _ = Residency.kv res ~tenant in
    let tbl = refs.(tenant) in
    let want =
      List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])
    in
    let ok = ref (Kvstore.keys kv = want) in
    Kvstore.iter kv (fun ~key ~value ->
        match Hashtbl.find_opt tbl key with
        | Some v when expected ~tenant ~key v = value -> ()
        | _ -> ok := false);
    if not !ok then incr failed
  done;
  Residency.close_all res;
  {
    samples;
    setups_s = !setups_s;
    ops = !issued - spec.warmup;
    attempted = !issued + spec.tenants;
    failed = !failed;
    hits = !hits;
    misses = !misses;
    delta;
    plain;
    traced;
  }

let get delta name = Option.value ~default:0 (List.assoc_opt name delta)

let run spec ~seed ~seconds ~tracer ?(corrupt = false) ?(reprs = reprs) () =
  let slice_ns = seconds * 1_000_000_000 / List.length reprs in
  let runs =
    List.map
      (fun repr ->
        let r = run_repr spec ~seed ~repr ~slice_ns ~tracer ~corrupt in
        Gc.compact ();
        (repr, r))
      reprs
  in
  let rs = List.map snd runs in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rs in
  let ops = sum (fun r -> r.ops) in
  let total name = sum (fun r -> get r.delta name) in
  let per_op name = Stats.ratio (total name) ops in
  let hits = sum (fun r -> r.hits) and misses = sum (fun r -> r.misses) in
  let sim =
    List.map
      (fun (repr, r) ->
        let samples = Array.map float_of_int r.samples in
        ( repr,
          {
            Outcome.p50 = Stats.percentile samples 50;
            p99 = Stats.percentile samples 99;
            per_op =
              Stats.ratio (Array.fold_left ( + ) 0 r.samples) spec.sim_ops;
          } ))
      runs
  in
  let paper =
    match List.assoc_opt Repr.Normal sim with
    | None -> []
    | Some base ->
        List.filter_map
          (fun (k, p) ->
            Option.map
              (fun s -> (s.Outcome.per_op /. base.Outcome.per_op, p))
              (List.assoc_opt k sim))
          Stats.paper_values
  in
  let o =
    {
      Outcome.attempted = sum (fun r -> r.attempted);
      failed = sum (fun r -> r.failed);
      plain = List.map (fun r -> r.plain) rs;
      traced = List.map (fun r -> r.traced) rs;
      setups_s = List.concat_map (fun r -> r.setups_s) rs;
      sim;
      paper;
      traffic =
        [
          ("residency_miss_share", Stats.ratio misses (hits + misses));
          ("reopens_per_op", Stats.ratio misses ops);
          ("evictions_per_op", per_op "server.evictions");
        ];
      layers = [];
    }
  in
  match tracer with
  | None -> o
  | Some tr ->
      let one k name =
        match List.assoc_opt k runs with
        | Some r -> Stats.ratio (get r.delta name) r.ops
        | None -> 0.0
      in
      let per_put f =
        match Tracer.find tr "apps.kvstore.put" with
        | Some a -> Stats.ratio (f a) a.Tracer.n
        | None -> 0.0
      in
      let span_means name =
        [
          (name ^ "_us", Tracer.mean_us tr name);
          (name ^ "_cycles", Tracer.mean_cycles tr name);
        ]
      in
      let layers =
        [ ("server.residency.hit_ratio", Stats.ratio hits (hits + misses)) ]
        @ span_means "server.residency.hit"
        @ span_means "server.residency.reopen"
        @ [
            ("server.evictions_per_op", per_op "server.evictions");
            ("nvregion.maps_per_op", per_op "server.maps");
            ( "palloc.recovered_blocks_per_reopen",
              Stats.ratio (total "alloc.recovered_blocks") misses );
            ("palloc.allocs_per_op", per_op "alloc.allocs");
            ("palloc.frees_per_op", per_op "alloc.frees");
          ]
        @ span_means "apps.kvstore.get"
        @ span_means "apps.kvstore.put"
        @ span_means "apps.kvstore.delete"
        @ [
            ("tx.flushes_per_put", per_put (fun a -> a.Tracer.flushes));
            ("tx.fences_per_put", per_put (fun a -> a.Tracer.fences));
          ]
        @ Outcome.counter_layers ~total ~one ~ops
        @ Outcome.host_layers o
      in
      { o with layers }
