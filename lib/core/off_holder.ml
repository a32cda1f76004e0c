(** Off-holder (Section 4.2): the slot stores the difference between the
    target address and the slot's own address. Zero space overhead; the
    conversion is a single add/subtract against an address the CPU
    already has (the holder's). Intra-region only: a cross-region
    difference would depend on where both regions happen to be mapped. *)

module K = Nvmpi_addr.Kinds
module Vaddr = K.Vaddr
module Off = K.Off

let name = "off-holder"
let slot_size = 8
let cross_region = false
let position_independent = true

(* A stored 0 encodes null: no live pointer can point at its own slot. *)

let store m ~holder (target : Vaddr.t) =
  if Vaddr.is_null target then begin
    Machine.bump m Machine.Cell.off_holder_stores;
    Machine.store64 m holder 0
  end
  else begin
    (* Section 4.4's dynamic same-region check. It runs before any
       cycle is charged or counter bumped, so a faulting store is
       observationally free. *)
    (match Machine.region_of_addr m holder with
    | Some r when Nvmpi_nvregion.Region.contains r target -> ()
    | _ -> raise (Machine.Cross_region_store { holder; target; repr = name }));
    Machine.bump m Machine.Cell.off_holder_stores;
    Machine.alu m 2;
    (* Figure 8, persistentI encode: i = target - holder. *)
    Machine.store64 m holder (Off.to_int (K.off_of_vaddr ~holder target))
  end

let load m ~holder =
  Machine.bump m Machine.Cell.off_holder_loads;
  let v = Off.v (Machine.load64 m holder) in
  Machine.alu m 2;
  (* Figure 8, persistentI decode: p = holder + i. *)
  if Off.is_null v then Vaddr.null else K.vaddr_of_off ~holder v
