(** The strawman from the paper's introduction: "Concatenating the two
    fields of a fat pointer (regionID and offset) into one 64-bit word
    ... can make the pointer self contained. But it would still require
    translations between the regionID and the address of the region at
    runtime, which, without a careful implementation, could easily incur
    large overhead."

    Same stored format as RIV ([{region ID | offset}]), but translated
    through the fat-pointer hashtable instead of the direct-mapped
    NV-space tables. The ablation benchmark compares it against RIV to
    isolate how much of RIV's win comes from the table design. *)

module K = Nvmpi_addr.Kinds
module Vaddr = K.Vaddr
module Riv = K.Riv

let name = "packed-fat"
let slot_size = 8
let cross_region = true
let position_independent = true

let store m ~holder (target : Vaddr.t) =
  Machine.bump m Machine.Cell.packed_fat_stores;
  if Vaddr.is_null target then Machine.store64 m holder 0
  else begin
    let rid = Fat_table.rid_of_addr m.Machine.fat target in
    Machine.alu m 3;
    (* The Figure 5 packing, with the ID produced by the hashtable
       runtime's reverse search rather than the RID table. *)
    let v =
      K.riv_of_rid_off m.Machine.layout ~rid
        ~offset:(K.seg_offset m.Machine.layout target)
    in
    Machine.store64 m holder (v :> int)
  end

let load m ~holder =
  Machine.bump m Machine.Cell.packed_fat_loads;
  let v = Riv.v (Machine.load64 m holder) in
  if Riv.is_null v then begin
    Fat_table.charge_null_lookup m.Machine.fat;
    Vaddr.null
  end
  else begin
    Machine.alu m 2;
    let rid = K.rid_of_riv m.Machine.layout v in
    let offset = K.offset_of_riv m.Machine.layout v in
    let base = Fat_table.lookup m.Machine.fat rid in
    Machine.alu m 1;
    Vaddr.add base offset
  end
