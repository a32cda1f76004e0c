(** Fat pointers (Section 5): a two-word [{regionID; offset}] struct, as
    used by PMEM.IO's PMEMoid and NV-Heaps' smart pointers. Every
    dereference pays a hashtable lookup from region ID to base address;
    every assignment pays a reverse search from address to region. *)

module K = Nvmpi_addr.Kinds
module Vaddr = K.Vaddr
module Rid = K.Rid

let name = "fat"
let slot_size = 16
let cross_region = true
let position_independent = true

(* The encoding shared with {!Fat_cached}: kept separate from [store]
   so each representation counts its own [repr.*.stores]. The shape is
   Figure 8's persistentX encode, but the address-to-ID step goes
   through the fat runtime's reverse search instead of the RID table. *)
let store_into m ~holder (target : Vaddr.t) =
  if Vaddr.is_null target then begin
    Machine.store64 m holder 0;
    Machine.store64 m (Vaddr.add holder 8) 0
  end
  else begin
    let rid = Fat_table.rid_of_addr m.Machine.fat target in
    Machine.alu m 1;
    let offset = K.seg_offset m.Machine.layout target in
    Machine.store64 m holder (rid :> int);
    Machine.store64 m (Vaddr.add holder 8) offset
  end

let store m ~holder target =
  Machine.bump m Machine.Cell.fat_stores;
  store_into m ~holder target

let load m ~holder =
  Machine.bump m Machine.Cell.fat_loads;
  let rid = Machine.load64 m holder in
  if rid = 0 then begin
    Fat_table.charge_null_lookup m.Machine.fat;
    Vaddr.null
  end
  else begin
    let offset = Machine.load64 m (Vaddr.add holder 8) in
    let base = Fat_table.lookup m.Machine.fat (Rid.v rid) in
    Machine.alu m 1;
    Vaddr.add base offset
  end
