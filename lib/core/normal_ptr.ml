(** Normal (volatile) pointers: the absolute virtual address is stored
    verbatim. This is the paper's baseline — fastest, but not position
    independent: after a region is remapped, stored targets are dangling. *)

module Vaddr = Nvmpi_addr.Kinds.Vaddr

let name = "normal"
let slot_size = 8
let cross_region = true
let position_independent = false

let store m ~holder (target : Vaddr.t) =
  Machine.bump m Machine.Cell.normal_stores;
  Machine.store64 m holder (target :> int)

let load m ~holder =
  Machine.bump m Machine.Cell.normal_loads;
  Vaddr.v (Machine.load64 m holder)
