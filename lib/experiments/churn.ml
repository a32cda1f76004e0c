module Machine = Core.Machine
module Repr = Core.Repr
module Metrics = Nvmpi_obs.Metrics
module Json = Nvmpi_obs.Json
module Store = Nvmpi_nvregion.Store
module Objstore = Nvmpi_tx.Objstore
module Kvstore = Nvmpi_apps.Kvstore
module Zipf = Nvmpi_server.Zipf

(* Allocator churn under every pointer representation: a zipfian-keyed
   kvstore whose values cycle through the palloc size classes (and into
   the large path), with periodic deletes, so value blocks are freed,
   split and reallocated all run long. Reported per representation —
   allocator placement interacts with each encoding's reach (off-holder
   locality vs RIV cross-region form) — alongside the alloc.* counter
   family the run generated.

   This experiment is additive: it never appears in the committed bench
   baseline (check only re-runs experiments its snapshot records), and
   it is the one Suite entry that runs the object store on the palloc
   backend — the pinned figures stay on the freelist. *)

let keys = 64
let theta = 0.9
let value_sizes = [| 24; 120; 480; 1500; 6000 |]
let delete_every = 9

let counter_cols =
  [
    "alloc.allocs";
    "alloc.frees";
    "alloc.splits";
    "alloc.slab_refills";
    "alloc.frag_bytes";
  ]

let scaled scale n = max 200 (int_of_float (float_of_int n *. scale))

let value_for ~key ~op ~len =
  let base = Printf.sprintf "k%d.op%d." key op in
  let n = String.length base in
  if n >= len then String.sub base 0 len else base ^ String.make (len - n) 'x'

let run_repr ~ops ~seed ?durability repr =
  let store = Store.create () in
  (* Same placement seed for every representation: identical region
     draws, identical request stream — apples-to-apples. *)
  let machine = Machine.create ~seed ?durability ~store () in
  let rid = Machine.create_region machine ~size:(1 lsl 20) in
  let region = Machine.open_region machine rid in
  if repr = Repr.Based then Machine.set_based_region machine rid;
  let os = Objstore.create machine region () in
  let kv = Kvstore.create os ~repr ~name:"churn" ~buckets:64 () in
  for key = 1 to keys do
    Kvstore.put kv ~key (value_for ~key ~op:0 ~len:24)
  done;
  let metrics = Machine.metrics machine in
  let before = Metrics.snapshot metrics in
  let c0 = Machine.cycles machine in
  let rng = Random.State.make [| seed; 0xC4A9 |] in
  let z = Zipf.v ~n:keys ~theta in
  for op = 1 to ops do
    let key = 1 + Zipf.next z rng in
    if op mod delete_every = 0 then ignore (Kvstore.delete kv ~key)
    else
      let len = value_sizes.(op mod Array.length value_sizes) in
      Kvstore.put kv ~key (value_for ~key ~op ~len)
  done;
  let cycles = Machine.cycles machine - c0 in
  let counters = Metrics.diff ~before ~after:(Metrics.snapshot metrics) in
  (* The heap must still be coherent after the storm. *)
  Objstore.heap_check os;
  (cycles, counters)

let table ?(scale = 1.0) ?seed ?durability () =
  let seed = Option.value seed ~default:11 in
  let ops = scaled scale 4000 in
  let rows, records =
    List.split
      (List.map
         (fun repr ->
           let cycles, counters = run_repr ~ops ~seed ?durability repr in
           let col name =
             string_of_int (Option.value ~default:0 (List.assoc_opt name counters))
           in
           let name = Repr.to_string repr in
           let cell =
             Json.Obj
               [
                 ("label", Json.String name);
                 ("cycles", Json.Int cycles);
                 ("counters", Metrics.json_of_counters counters);
               ]
           in
           ( name :: string_of_int cycles :: List.map col counter_cols,
             Json.Obj
               [ ("row", Json.String name); ("cells", Json.List [ cell ]) ] ))
         Repr.all)
  in
  {
    Table.title =
      "Churn: zipfian-keyed kvstore with value-size churn and deletes on \
       the palloc heap";
    header = "repr" :: "cycles" :: counter_cols;
    rows;
    notes =
      [
        Printf.sprintf
          "%d ops over %d keys (theta %g), values cycle %s bytes, every \
           %dth op deletes; palloc-backed object store"
          ops keys theta
          (String.concat "/"
             (Array.to_list (Array.map string_of_int value_sizes)))
          delete_every;
      ];
    records;
  }
