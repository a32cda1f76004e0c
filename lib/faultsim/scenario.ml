module Machine = Core.Machine
module Repr = Core.Repr
module Store = Nvmpi_nvregion.Store
module Region = Nvmpi_nvregion.Region
module Memsim = Nvmpi_memsim.Memsim
module Metrics = Nvmpi_obs.Metrics
module Rid = Nvmpi_addr.Kinds.Rid
module Vaddr = Nvmpi_addr.Kinds.Vaddr
module Node = Nvmpi_structures.Node
module Durable = Nvmpi_structures.Durable
module Instance = Nvmpi_experiments.Instance
module Workload = Nvmpi_experiments.Workload
module Palloc = Nvmpi_palloc.Palloc
module Timing = Nvmpi_cachesim.Timing
module Objstore = Nvmpi_tx.Objstore
module Tx = Nvmpi_tx.Tx
module Kvstore = Nvmpi_apps.Kvstore
module Snapshot = Nvmpi_snapshot.Snapshot
module IntSet = Set.Make (Int)

type run = {
  tracker : Tracker.t;
  verify :
    seq:int ->
    Machine.t ->
    (Rid.t * Region.t) list ->
    (unit, string) result;
}

type t = {
  name : string;
  expect_fail : bool;
  run : metrics:Metrics.t -> seed:int -> run;
}

let region_size = 1 lsl 20
let payload = 32
let ( let* ) = Result.bind

(* {1 The scaffold}

   Every scenario is one row: a name, [expect_fail], the representation
   whose base register ([Repr.Based]) must point at the region, a
   pre-arm [setup], the tracked [workload] and an [oracle]. The scaffold
   owns everything else: it boots a machine with one region, runs
   [setup] on it, attaches and arms the tracker (whatever [setup] left
   in the region is the durable base image), runs [workload], and hands
   [oracle] each recovery machine with the region found again. *)

type env = { seed : int; machine : Machine.t; region : Region.t }

let scenario ?(expect_fail = false) ?repr name ~setup ~workload ~oracle =
  let based machine rid =
    if repr = Some Repr.Based then Machine.set_based_region machine rid
  in
  let run ~metrics ~seed =
    let machine = Machine.create ~metrics ~seed ~store:(Store.create ()) () in
    let rid = Machine.create_region machine ~size:region_size in
    let region = Machine.open_region machine rid in
    based machine rid;
    let state = setup { seed; machine; region } in
    let tracker = Tracker.attach machine in
    Tracker.arm tracker;
    let history = workload tracker state in
    let verify ~seq machine' regions' =
      match List.assoc_opt rid regions' with
      | None -> failwith "recovered store lost the region"
      | Some region' ->
          based machine' rid;
          oracle history ~seq machine' region'
    in
    { tracker; verify }
  in
  { name; expect_fail; run }

(* {1 Durable linearizability}

   The oracle shared by every scenario whose workload is a sequence of
   atomic operations (Zuriel et al., "Efficient Lock-Free Durable
   Sets"): at a crash point, every operation that completed before it
   is durable, and the single operation in flight may be either fully
   applied or fully absent — never torn. The workload runs its
   operations through {!logged}, which records each one's event window;
   {!linearizable_as} turns the log into the states recovery may
   legally produce and checks the recovered one against them. *)

type 'op window = { before : int; after : int; op : 'op }

(* Run [f 1], ..., [f n] in order, each inside its own event window. *)
let logged tracker n f =
  let rec go i acc =
    if i > n then List.rev acc
    else
      let before = Tracker.seq tracker in
      let op = f i in
      go (i + 1) ({ before; after = Tracker.seq tracker; op } :: acc)
  in
  go 1 []

(* The committed state — [initial] with every operation whose window
   closed by [seq] applied in order — and, when [seq] falls strictly
   inside an operation's window, that operation applied on top. *)
let candidates ~seq ~initial ~apply log =
  let committed =
    List.fold_left
      (fun s w -> if w.after <= seq then apply w.op s else s)
      initial log
  in
  committed
  ::
  (match List.find_opt (fun w -> w.before < seq && seq < w.after) log with
  | Some w -> [ apply w.op committed ]
  | None -> [])

(* [observed] is what recovery produced, as [observe] would see each
   candidate state. Returns the candidate it matches, or the one
   "recovered X, expected Y or Z" violation, prefixed by [what] and
   followed by [why]. *)
let linearizable_as ?what ?(why = "") ~observe ~show_observed ~show ~seq
    ~initial ~apply log observed =
  let cs = candidates ~seq ~initial ~apply log in
  match List.find_opt (fun s -> observe s = observed) cs with
  | Some s -> Ok s
  | None ->
      Error
        (Printf.sprintf "%srecovered %s, expected %s%s"
           (match what with Some w -> w ^ ": " | None -> "")
           (show_observed observed)
           (String.concat " or " (List.map show cs))
           why)

(* The common case: recovery is read back as a whole state. *)
let linearizable ~what ~show ~seq ~initial ~apply log actual =
  Result.map ignore
    (linearizable_as ~what ~observe:Fun.id ~show_observed:show ~show ~seq
       ~initial ~apply log actual)

(* Whole-state logs: each operation records the state it installs. *)
let installs state _ = state

(* Recovery must leave no log behind: attaching rolls back the undo
   log or replays the snapshot log, whichever the region holds. *)
let undo_drained machine' region' =
  let os' = Objstore.attach machine' region' in
  if Objstore.log_entries os' = 0 then Ok os'
  else Error "undo log still has records after recovery"

let snapshot_drained machine' region' =
  let snap' = Snapshot.attach machine' region' in
  if Snapshot.committed_bytes snap' = 0 then Ok ()
  else Error "snapshot log still committed after recovery"

let show_cells a =
  "[" ^ String.concat "," (Array.to_list (Array.map string_of_int a)) ^ "]"

(* {1 Plain-mode structures}

   The structure is built between checkpoints; the oracle is the state
   at the last checkpoint whose fence precedes the crash point — between
   fences the durable image cannot change, so recovery must reproduce
   that checkpoint exactly: node count, payload checksum, and membership
   of every key inserted so far (probed through the recovered pointers
   at the new segment). *)

type checkpointed = {
  upto : int; (* first crash point at which this state is durable *)
  count : int;
  checksum : int;
  present : int list;
}

let structure_scenario ?(keys = 12) ?(batch = 4) ?(fence = true)
    ?(pinned_dependent = false) structure repr =
  let name =
    let base =
      Printf.sprintf "%s/%s"
        (Instance.structure_name structure)
        (Repr.to_string repr)
    in
    if not fence then "selftest-nofence-" ^ base
    else if pinned_dependent then "pinned-dependent-" ^ base
    else "struct-" ^ base
  in
  let root = "faultsim" in
  let check_against all_keys cp machine' region' =
    let node' = Node.make machine' ~mode:(Node.Plain [| region' |]) ~payload in
    let inst' = Instance.attach structure repr node' ~name:root in
    let count, checksum = inst'.Instance.traverse () in
    let absent_probe = List.fold_left max 0 all_keys + 1 in
    if count <> cp.count then
      Error
        (Printf.sprintf "traverse visited %d nodes, durable state holds %d"
           count cp.count)
    else if checksum <> cp.checksum then
      Error
        (Printf.sprintf "traverse checksum 0x%x, durable state has 0x%x"
           checksum cp.checksum)
    else begin
      match
        List.find_opt
          (fun k -> inst'.Instance.search k <> List.mem k cp.present)
          all_keys
      with
      | Some k ->
          Error
            (Printf.sprintf "key %d %s after recovery" k
               (if List.mem k cp.present then "missing" else "present"))
      | None ->
          if inst'.Instance.search absent_probe then
            Error
              (Printf.sprintf "never-inserted key %d found after recovery"
                 absent_probe)
          else Ok ()
    end
  in
  scenario name ~expect_fail:(not fence) ~repr
    ~setup:(fun { seed; machine; region } ->
      let node = Node.make machine ~mode:(Node.Plain [| region |]) ~payload in
      let inst = Instance.create structure repr node ~name:root in
      let ks = Workload.keys ~n:keys ~seed:(seed + 17) in
      (* The pinned scenario must have live pointers in the durable base
         image at arm time — an empty structure would (correctly) survive
         the remap, leaving nothing to pin. *)
      let pre =
        if pinned_dependent then
          Array.to_list (Workload.keys ~n:4 ~seed:(seed + 91))
        else []
      in
      List.iter inst.Instance.insert pre;
      (inst, ks, pre, Region.base region))
    ~workload:(fun tracker (inst, ks, pre, original_base) ->
      let cps = ref [] in
      let record present =
        let count, checksum = inst.Instance.traverse () in
        cps := { upto = Tracker.seq tracker; count; checksum; present } :: !cps
      in
      record pre;
      let inserted = ref pre in
      Array.iteri
        (fun i k ->
          inst.Instance.insert k;
          inserted := k :: !inserted;
          if (i + 1) mod batch = 0 || i = Array.length ks - 1 then begin
            Tracker.checkpoint ~fence tracker;
            record !inserted
          end)
        ks;
      (List.rev !cps, Array.to_list ks @ pre, original_base))
    ~oracle:(fun (cps, all_keys, original_base) ~seq machine' region' ->
      let cp =
        List.fold_left
          (fun acc c -> if c.upto <= seq then c else acc)
          (List.hd cps) cps
      in
      if not pinned_dependent then check_against all_keys cp machine' region'
      else if Vaddr.equal (Region.base region') original_base then
        (* The random remap landed on the original segment: absolute
           pointers happen to be valid, nothing to pin. *)
        Ok ()
      else begin
        (* Pinned failure mode: the durable image carries absolute
           pointers from the previous mapping; after the remap the
           corruption must be observable. *)
        match check_against all_keys cp machine' region' with
        | Error _ | (exception _) -> Ok ()
        | Ok () ->
            Error
              "position-dependent image recovered cleanly after remap; \
               expected corruption went undetected"
      end)

(* {1 Kvstore}

   Both kvstore scenarios log whole canonical maps over the same six
   keys and read the recovered store back the same way; they differ in
   the write path and in which recovery log must be drained. *)

let model_put k v m = (k, v) :: List.remove_assoc k m
let model_del k m = List.remove_assoc k m
let canon m = List.sort compare m

let describe_map m =
  "{"
  ^ String.concat "; "
      (List.map (fun (k, v) -> Printf.sprintf "%d:%S" k v) m)
  ^ "}"

(* A fresh store holding keys 1..3, with that state as the model. *)
let kv_create ?write_path os ~repr =
  let kv = Kvstore.create os ~repr ~name:"kv" ~buckets:8 ?write_path () in
  let model = ref [] in
  for k = 1 to 3 do
    let v = Printf.sprintf "init-%d" k in
    Kvstore.put kv ~key:k v;
    model := model_put k v !model
  done;
  (kv, model)

let kv_recovered ~what ?write_path ~repr os' (initial, log) ~seq =
  let kv' = Kvstore.attach ?write_path os' ~repr ~name:"kv" in
  let actual =
    List.filter_map
      (fun k -> Option.map (fun v -> (k, v)) (Kvstore.get kv' ~key:k))
      [ 1; 2; 3; 4; 5; 6 ]
    |> canon
  in
  linearizable ~what ~show:describe_map ~seq ~initial ~apply:installs log
    actual

(* Each put/delete is one undo-logged transaction. *)
let kv_scenario ?(ops = 8) repr =
  scenario (Printf.sprintf "kvstore/%s" (Repr.to_string repr)) ~repr
    ~setup:(fun { machine; region; _ } ->
      kv_create (Objstore.create machine region ()) ~repr)
    ~workload:(fun tracker (kv, model) ->
      let initial = canon !model in
      let log =
        logged tracker ops (fun i ->
            let key = (i mod 5) + 1 in
            if i mod 4 = 0 then begin
              ignore (Kvstore.delete kv ~key);
              model := model_del key !model
            end
            else begin
              let v = Printf.sprintf "v%d-%d" i key in
              Kvstore.put kv ~key v;
              model := model_put key v !model
            end;
            canon !model)
      in
      (initial, log))
    ~oracle:(fun history ~seq machine' region' ->
      let* os' = undo_drained machine' region' in
      kv_recovered ~what:"read-your-writes" ~repr os' history ~seq)

(* {1 Raw object-store transactions}

   A bank-cell workload straight on Tx.store64: each transaction writes
   two of eight cells. Atomicity per transaction, checked against the
   durable commit prefix. *)

let tx_cells_scenario ?(txs = 6) () =
  scenario "objstore-tx-cells"
    ~setup:(fun { machine; region; _ } ->
      let os = Objstore.create machine region () in
      let cells = Objstore.alloc os ~tag:0xCE11 ~size:64 () in
      for i = 0 to 7 do
        Memsim.store64 machine.Machine.mem (Vaddr.add cells (8 * i)) (100 + i)
      done;
      Region.set_root region "cells" cells;
      (os, cells))
    ~workload:(fun tracker (os, cells) ->
      let tx = Tx.create os in
      logged tracker txs (fun j ->
          let i1 = j mod 8 and i2 = (3 * j) mod 8 in
          let v1 = (j * 1000) + i1 and v2 = (j * 1000) + i2 + 7 in
          Tx.begin_tx tx;
          Tx.store64 tx (Vaddr.add cells (8 * i1)) v1;
          Tx.store64 tx (Vaddr.add cells (8 * i2)) v2;
          Tx.commit tx;
          [ (i1, v1); (i2, v2) ]))
    ~oracle:(fun log ~seq machine' region' ->
      let* _ = undo_drained machine' region' in
      let cells' =
        match Region.root region' "cells" with
        | Some a -> a
        | None -> failwith "cells root lost"
      in
      let apply writes arr =
        let arr = Array.copy arr in
        List.iter (fun (i, v) -> arr.(i) <- v) writes;
        arr
      in
      let actual =
        Array.init 8 (fun i ->
            Memsim.load64 machine'.Machine.mem (Vaddr.add cells' (8 * i)))
      in
      linearizable ~what:"torn cells" ~show:show_cells ~seq
        ~initial:(Array.init 8 (fun i -> 100 + i))
        ~apply log actual)

(* {1 The swizzle window}

   Between the swizzle (load-time) and unswizzle (save-time) passes a
   swizzled structure is position dependent on NVM. A crash while the
   image is packed recovers; a crash after a persist of the swizzled
   form must observably fail after the remap — the pinned failure mode
   this scenario documents. *)

let swizzle_window_scenario ?(keys = 8) () =
  let root = "swz" in
  scenario "swizzle-unswizzle-window"
    ~setup:(fun { seed; machine; region } ->
      let node = Node.make machine ~mode:(Node.Plain [| region |]) ~payload in
      let inst = Instance.create Instance.List Repr.Swizzle node ~name:root in
      let ks = Workload.keys ~n:keys ~seed:(seed + 23) in
      Array.iter (fun k -> inst.Instance.insert k) ks;
      let expected = inst.Instance.traverse () in
      inst.Instance.unswizzle ();
      (inst, expected, Region.base region))
    ~workload:(fun tracker (inst, expected, original_base) ->
      inst.Instance.swizzle ();
      Tracker.checkpoint tracker;
      (* The fence just issued persisted absolute pointers: every crash
         point from here until the post-unswizzle fence inherits them. *)
      let bad_from = Tracker.seq tracker in
      inst.Instance.unswizzle ();
      Tracker.checkpoint tracker;
      (expected, original_base, bad_from, Tracker.seq tracker))
    ~oracle:(fun (expected, original_base, bad_from, good_from) ~seq machine'
                 region' ->
      let attempt =
        try
          let node' =
            Node.make machine' ~mode:(Node.Plain [| region' |]) ~payload
          in
          let inst' =
            Instance.attach Instance.List Repr.Swizzle node' ~name:root
          in
          inst'.Instance.swizzle ();
          Ok (inst'.Instance.traverse ())
        with e -> Error (Printexc.to_string e)
      in
      let in_window = seq >= bad_from && seq < good_from in
      if not in_window then begin
        match attempt with
        | Ok got when got = expected -> Ok ()
        | Ok (c, s) ->
            Error
              (Printf.sprintf
                 "packed image recovered to %d nodes (0x%x), expected %d \
                  (0x%x)"
                 c s (fst expected) (snd expected))
        | Error msg ->
            Error ("recovery failed outside the swizzled window: " ^ msg)
      end
      else if Vaddr.equal (Region.base region') original_base then Ok ()
      else begin
        match attempt with
        | Error _ -> Ok () (* dangling absolute pointer faulted: pinned *)
        | Ok got when got <> expected -> Ok () (* visible corruption *)
        | Ok _ ->
            Error
              "swizzled (position-dependent) image recovered cleanly after \
               remap; expected corruption went undetected"
      end)

(* {1 Allocator churn}

   Seeded alloc/free churn straight on a palloc heap carved from the
   boot region, every allocation published through a root cell. The
   oracle at every crash point, after [Palloc.recover]:

   - [Palloc.check]: the headers tile the heap (no byte owned by two
     blocks), no block is both free-listed and reachable, lists are
     exact;
   - the allocated set equals the root set: every non-empty root
     references a live block (nothing reachable is unbacked) and every
     live block is referenced by exactly one root (nothing leaked) —
     [alloc_into]/[free_from] promise exactly this atomicity. *)

let palloc_over machine region ~fresh =
  let heap_off =
    Nvmpi_addr.Bitops.align_up (Region.heap_top region) 16
  in
  let lo = Region.addr_of_offset region heap_off in
  let hi = Vaddr.add (Region.base region) (Region.size region) in
  (if fresh then Palloc.init else Palloc.recover)
    ~mem:machine.Machine.mem ~timing:machine.Machine.timing
    ~metrics:(Machine.metrics machine) ~lo ~hi

let verify_palloc () ~seq:_ machine' region' =
  match palloc_over machine' region' ~fresh:false with
  | exception Palloc.Corrupted msg ->
      Error ("allocator recovery failed: " ^ msg)
  | t' -> (
      match Palloc.check t' with
      | exception Palloc.Corrupted msg ->
          Error ("allocator invariant violated: " ^ msg)
      | () ->
          let rooted =
            List.init Palloc.roots (fun i -> Palloc.root_get t' i)
            |> List.filter (fun p -> p <> 0)
            |> List.sort compare
          in
          let live = Palloc.allocated_payloads t' in
          if live = rooted then Ok ()
          else
            Error
              (Printf.sprintf
                 "allocator leak/double-map: %d live blocks vs %d rooted \
                  offsets"
                 (List.length live) (List.length rooted)))

let alloc_scenario ?(ops = 14) () =
  scenario "palloc-churn"
    ~setup:(fun { seed; machine; region } ->
      let t = palloc_over machine region ~fresh:true in
      (* A little pre-arm history so the churn frees real blocks. *)
      ignore (Palloc.alloc_into t ~root:0 24);
      ignore (Palloc.alloc_into t ~root:1 5000);
      (t, Random.State.make [| seed; 0xA110C |]))
    ~workload:(fun _ (t, rng) ->
      let sizes = [| 16; 4000; 200; 9000; 24; 120; 4096; 48; 1500; 600 |] in
      for i = 1 to ops do
        let root = i mod 6 in
        if Palloc.root_get t root <> 0 then Palloc.free_from t ~root
        else
          ignore
            (Palloc.alloc_into t ~root
               sizes.(Random.State.int rng (Array.length sizes)))
      done)
    ~oracle:verify_palloc

(* Selftest double: clear a root cell durably {e before} freeing the
   block it referenced. Every crash point between those two fences has
   a live block no root references — a leak the sweep must call out. *)
let alloc_leak_selftest () =
  scenario "selftest-leak-palloc" ~expect_fail:true
    ~setup:(fun { machine; region; _ } ->
      let t = palloc_over machine region ~fresh:true in
      (machine, t, Palloc.alloc_into t ~root:2 160))
    ~workload:(fun _ (machine, t, p) ->
      let root = Palloc.root_addr t 2 in
      Memsim.store64 machine.Machine.mem root 0;
      Timing.flush machine.Machine.timing ~addr:(root :> int);
      Timing.fence machine.Machine.timing;
      (* The block is now unreachable but still allocated: leaked. *)
      Palloc.free t p)
    ~oracle:verify_palloc

(* {1 Durable sets (link-and-persist)}

   Hashset/bstree under [Durable.Traverse] (docs/DURABLE.md): traversals
   flush nothing, each insert/remove persists exactly one modification
   window (fresh-node lines + one marked link flush + fence). The oracle
   at every crash point: the recovered set equals the durable commit
   prefix of the op log, except the single in-flight op may be either
   fully applied or fully absent — never torn. Count, checksum and
   per-key membership are all probed through a traverse-mode attach, so
   recovery also exercises the marked-link repair path (the final
   mark-clearing store is deliberately never flushed). Fat/Fat_cached
   keep the eager discipline and are covered by the plain-mode
   structure scenarios above. *)

let durable_scenario ?(ops = 14) ?(drop_flushes = false) structure repr =
  let name =
    let base =
      Printf.sprintf "durable-%s/%s"
        (Instance.structure_name structure)
        (Repr.to_string repr)
    in
    if drop_flushes then "selftest-dropflush-" ^ base else base
  in
  let root = "durset" in
  let node machine region =
    Node.make ~durability:Durable.Traverse machine
      ~mode:(Node.Plain [| region |]) ~payload
  in
  let apply (k, insert) set =
    (if insert then IntSet.add else IntSet.remove) k set
  in
  let expected_of set =
    ( IntSet.cardinal set,
      IntSet.fold
        (fun k acc -> acc + k + Node.payload_checksum ~payload ~seed:k)
        set 0 )
  in
  let describe set =
    "{" ^ String.concat ";" (List.map string_of_int (IntSet.elements set)) ^ "}"
  in
  scenario name ~expect_fail:drop_flushes ~repr
    ~setup:(fun { seed; machine; region } ->
      let inst =
        Instance.create structure repr (node machine region) ~name:root
      in
      (* A small key universe so removals keep biting; the pre-arm subset
         is durable via the tracker's attach-time baseline. *)
      let universe = Workload.keys ~n:9 ~seed:(seed + 29) in
      let model = ref IntSet.empty in
      Array.iteri
        (fun i k ->
          if i < 4 then begin
            inst.Instance.insert k;
            model := IntSet.add k !model
          end)
        universe;
      (inst, universe, model, Random.State.make [| seed; 0xD5E7 |]))
    ~workload:(fun tracker (inst, universe, model, rng) ->
      let initial = !model in
      let churn () =
        logged tracker ops (fun _ ->
            let k = universe.(Random.State.int rng (Array.length universe)) in
            let insert = not (IntSet.mem k !model) in
            if insert then inst.Instance.insert k
            else ignore (inst.Instance.remove k);
            model := apply (k, insert) !model;
            (k, insert))
      in
      (* The double: the tracker never sees the windows' flushes and
         fences, so completed ops never become durable. *)
      let log =
        if drop_flushes then Tracker.dropping_persists tracker churn
        else churn ()
      in
      (universe, initial, log))
    ~oracle:(fun (universe, initial, log) ~seq machine' region' ->
      let inst' =
        Instance.attach structure repr (node machine' region') ~name:root
      in
      let* set =
        linearizable_as
          ~why:" — a completed op was lost or a partial node is reachable"
          ~observe:expected_of
          ~show_observed:(fun (count, checksum) ->
            Printf.sprintf "set has %d nodes (0x%x)" count checksum)
          ~show:describe ~seq ~initial ~apply log
          (inst'.Instance.traverse ())
      in
      match
        Array.to_list universe
        |> List.find_opt (fun k -> inst'.Instance.search k <> IntSet.mem k set)
      with
      | Some k ->
          Error
            (Printf.sprintf "key %d %s after recovery" k
               (if IntSet.mem k set then "missing" else "present"))
      | None -> Ok ())

(* {1 Failure-atomic snapshots (FAMS/WAL)}

   Epochs of plain (un-instrumented) stores closed by [Snapshot.sync]
   (docs/SNAPSHOT.md). The oracle at every crash point: the recovered
   state — after [Snapshot.attach] replays any committed-but-untruncated
   log — equals the last epoch whose sync completed before the crash,
   except that the single in-flight sync may already be fully applied
   (its commit fence is the all-or-nothing pivot); never anything torn.
   Crash points land mid-log-append, post-commit pre-writeback and
   pre-truncate organically; one epoch runs [sync ~stop_after:`Commit]
   followed by an explicit [replay] so the replay path itself is part
   of the tracked event stream and gets mid-replay crash points. *)

let snapshot_cells_scenario ?(epochs = 5) ?(cells = 16)
    ?(granularity = Snapshot.Line) ?(skip_writeback = false) () =
  let name =
    let base =
      Printf.sprintf "snapshot-cells/%s"
        (Snapshot.granularity_to_string granularity)
    in
    if skip_writeback then "selftest-snapshot-nowb-" ^ base else base
  in
  (* Cells at a 520-byte stride: one epoch's writes scatter over many
     lines and several pages, so a torn epoch is observable and the
     line-vs-page log shapes differ. *)
  let stride = 520 in
  let initial = Array.init cells (fun i -> 1000 + i) in
  scenario name ~expect_fail:skip_writeback
    ~setup:(fun { machine; region; _ } ->
      let block = Region.alloc region (cells * stride) in
      Region.set_root region "snapcells" block;
      let store i v =
        Memsim.store64 machine.Machine.mem (Vaddr.add block (i * stride)) v
      in
      Array.iteri store initial;
      let snap = Snapshot.create machine region ~granularity () in
      Snapshot.sync snap;
      (snap, store))
    ~workload:(fun tracker (snap, store) ->
      let model = Array.copy initial in
      logged tracker epochs (fun e ->
          for i = 0 to cells - 1 do
            if ((i * 7) + e) mod 3 <> 2 then begin
              model.(i) <- (e * 1000) + i;
              store i model.(i)
            end
          done;
          (* The middle epoch commits, then replays as workload: its
             write-back happens via the recovery path, under the
             tracker, so the sweep crashes mid-replay too. The double
             commits every other epoch and truncates it with no
             write-back, durably discarding it. *)
          let mid = e = (epochs / 2) + 1 in
          if mid || skip_writeback then begin
            Snapshot.sync ~stop_after:`Commit snap;
            (if mid then Snapshot.replay else Snapshot.truncate) snap
          end
          else Snapshot.sync snap;
          Array.copy model))
    ~oracle:(fun log ~seq machine' region' ->
      (* Recovery order matters: replay the snapshot log first, then
         read the (possibly just-reinstalled) cells. *)
      let* () = snapshot_drained machine' region' in
      let block' =
        match Region.root region' "snapcells" with
        | Some a -> a
        | None -> failwith "snapcells root lost"
      in
      let actual =
        Array.init cells (fun i ->
            Memsim.load64 machine'.Machine.mem (Vaddr.add block' (i * stride)))
      in
      linearizable ~what:"epoch torn or lost" ~show:show_cells ~seq ~initial
        ~apply:installs log actual)

(* Kvstore over the plain (snapshot) write path: batches of
   un-instrumented puts/deletes on a freelist-heap object store, each
   batch closed by a sync. The oracle is read-your-writes at epoch
   granularity — the whole batch (index, values, allocator words)
   appears atomically or not at all. *)
let snapshot_kv_scenario ?(epochs = 5) ?(granularity = Snapshot.Line) repr =
  scenario
    (Printf.sprintf "snapshot-kv/%s/%s" (Repr.to_string repr)
       (Snapshot.granularity_to_string granularity))
    ~repr
    ~setup:(fun { machine; region; _ } ->
      (* The flush-free freelist heap: under snapshot durability nothing
         but sync may move the durable cut (palloc's logged allocations
         would persist allocator state mid-epoch, docs/SNAPSHOT.md).
         The snapshot's meta/log pages must be carved out before the
         object store claims the whole remaining region as its heap. *)
      let snap = Snapshot.create machine region ~granularity () in
      let os = Objstore.create machine region ~heap:`Freelist () in
      let kv, model = kv_create os ~repr ~write_path:`Plain in
      Snapshot.sync snap;
      (snap, kv, model))
    ~workload:(fun tracker (snap, kv, model) ->
      let initial = canon !model in
      let log =
        logged tracker epochs (fun e ->
            for j = 0 to 2 do
              let key = (((e * 3) + j) mod 5) + 1 in
              if (e + j) mod 4 = 0 then begin
                ignore (Kvstore.delete kv ~key);
                model := model_del key !model
              end
              else begin
                let v = Printf.sprintf "v%d-%d" e key in
                Kvstore.put kv ~key v;
                model := model_put key v !model
              end
            done;
            Snapshot.sync snap;
            canon !model)
      in
      (initial, log))
    ~oracle:(fun history ~seq machine' region' ->
      (* Replay first: the object store's metadata and heap words are
         themselves part of the epoch being reinstalled. *)
      let* () = snapshot_drained machine' region' in
      kv_recovered ~what:"epoch read-your-writes" ~write_path:`Plain ~repr
        (Objstore.attach machine' region')
        history ~seq)

(* {1 Catalogues} *)

let defaults () =
  let pi_reprs = List.filter Repr.position_independent Repr.all in
  List.concat_map
    (fun s -> List.map (structure_scenario s) pi_reprs)
    Instance.structures
  @ List.map kv_scenario [ Repr.Off_holder; Repr.Riv; Repr.Fat_cached ]
  @ List.concat_map
      (fun s -> List.map (durable_scenario s) Durable.reprs)
      Nvmpi_experiments.Durset.structures
  @ [
      tx_cells_scenario ();
      swizzle_window_scenario ();
      structure_scenario ~pinned_dependent:true Instance.List Repr.Normal;
      alloc_scenario ();
      snapshot_cells_scenario ~granularity:Snapshot.Line ();
      snapshot_cells_scenario ~granularity:Snapshot.Page ();
      snapshot_kv_scenario Repr.Riv;
      snapshot_kv_scenario Repr.Off_holder;
    ]

let selftests () =
  [
    structure_scenario ~fence:false Instance.List Repr.Riv;
    alloc_leak_selftest ();
    durable_scenario ~drop_flushes:true Instance.Hashset Repr.Riv;
    durable_scenario ~drop_flushes:true Instance.Btree Repr.Off_holder;
    snapshot_cells_scenario ~skip_writeback:true ();
  ]
