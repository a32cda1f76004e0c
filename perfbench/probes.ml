(* Fixed-count loops on public functions, run in the traced run only.
   Each probe reports the median of [reps] repetitions. *)

module Machine = Core.Machine
module Repr = Core.Repr
module Region = Core.Region
module Memsim = Core.Memsim
module Timing = Core.Timing
module Vaddr = Core.Kinds.Vaddr
module Wall = Nvmpi_parsweep.Wall

let reps = 5

let median_ns_per_op ~n f =
  f (n / 10);
  Stats.median_float
    (List.init reps (fun _ ->
         let (), ns = Wall.time (fun () -> f n) in
         float_of_int ns /. float_of_int n))

(* Host ns and simulated cycles of one [Engine.deref] per representation. *)
let deref kind =
  let n = 200_000 in
  let m = Machine.create ~seed:1 ~store:(Core.Store.create ()) () in
  let r = Machine.open_region m (Machine.create_region m ~size:(1 lsl 20)) in
  if kind = Repr.Based then Machine.set_based_region m (Region.rid r);
  let holder = Region.alloc r (Repr.slot_size kind) in
  Core.Engine.store kind m ~holder (Region.alloc r 64);
  let loop k =
    for _ = 1 to k do
      ignore (Core.Engine.deref kind m ~holder)
    done
  in
  let ns = median_ns_per_op ~n loop in
  let c0 = Machine.cycles m in
  loop 1000;
  (ns, float_of_int (Machine.cycles m - c0) /. 1000.0)

let memsim () =
  let n = 1_000_000 and base = 0x100000 and page = 4096 in
  let mem = Memsim.create () in
  Memsim.map mem ~addr:(Vaddr.v base) ~size:(4 * page);
  let hit =
    median_ns_per_op ~n (fun k ->
        for i = 0 to k - 1 do
          ignore (Memsim.load64 mem (Vaddr.v (base + ((i land 0x7f) * 8))))
        done)
  in
  let miss =
    median_ns_per_op ~n (fun k ->
        for i = 0 to k - 1 do
          ignore (Memsim.load64 mem (Vaddr.v (base + ((i land 1) * page))))
        done)
  in
  (hit, miss)

let cachesim () =
  let n = 1_000_000 in
  let clock = Core.Clock.create () in
  let timing = Timing.create ~clock ~is_nvm:(fun a -> a land 0x10000 <> 0) () in
  (* A 64 KiB stride pattern over 256 lines: L1 misses, L2 hits. *)
  median_ns_per_op ~n (fun k ->
      for i = 0 to k - 1 do
        let addr = (i land 0xff) * 64 * 17 in
        Timing.access timing ~addr ~size:8 ~write:false
      done)

(* [close_region] + [open_region] of a 64 KiB region while 63 others
   stay mapped, in microseconds. *)
let reopen () =
  let n = 200 in
  let m = Machine.create ~seed:1 ~store:(Core.Store.create ()) () in
  let rids =
    List.init 64 (fun _ -> Machine.create_region m ~size:(64 * 1024))
  in
  List.iter (fun rid -> ignore (Machine.open_region m rid)) rids;
  let rid = List.hd rids in
  median_ns_per_op ~n (fun k ->
      for _ = 1 to k do
        Machine.close_region m rid;
        ignore (Machine.open_region m rid)
      done)
  /. 1000.0

let run () =
  let derefs =
    List.concat_map
      (fun kind ->
        let ns, cycles = deref kind in
        let name = Repr.to_string kind in
        [
          ("core.deref_ns." ^ name, ns); ("core.deref_cycles." ^ name, cycles);
        ])
      Repr.all
  in
  let hit, miss = memsim () in
  derefs
  @ [
      ("memsim.load64_ns", hit);
      ("memsim.load64_tlb_miss_ns", miss);
      ("cachesim.access_ns", cachesim ());
      ("nvregion.reopen_us", reopen ());
    ]
