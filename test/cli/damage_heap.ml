(* Writes a store image whose object-store heap is damaged: one region
   holding an object store on the palloc heap, with the version word of
   the heap's superblock overwritten to 99, so attaching the store
   raises [Palloc.Corrupted].

   Usage: damage_heap.exe FILE *)

module Machine = Core.Machine
module Region = Nvmpi_nvregion.Region
module Memsim = Nvmpi_memsim.Memsim
module Vaddr = Nvmpi_addr.Kinds.Vaddr
module Objstore = Nvmpi_tx.Objstore

(* Object-store metadata word holding the heap's region offset, and the
   superblock word holding the palloc heap version. *)
let m_heap_lo = 32
let o_version = 8

let () =
  let store = Core.Store.create () in
  let m = Machine.create ~seed:1 ~store () in
  let rid = Machine.create_region m ~size:(1 lsl 16) in
  let r = Machine.open_region m rid in
  let os = Objstore.create m r ~log_cap:4096 () in
  assert (Objstore.heap_kind os = `Palloc);
  let mem = m.Machine.mem in
  let meta = Option.get (Region.root r "__objstore") in
  let heap_lo = Memsim.load64 mem (Vaddr.add meta m_heap_lo) in
  Memsim.store64 mem (Vaddr.add (Region.base r) (heap_lo + o_version)) 99;
  (match Objstore.attach m r with
  | exception Nvmpi_palloc.Palloc.Corrupted _ -> ()
  | _ -> failwith "damage_heap: the damaged heap still attaches");
  Machine.close_region m rid;
  Core.Store.save_file store Sys.argv.(1)
