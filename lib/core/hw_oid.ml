(** A hypothetical hardware-assisted representation, modelling the
    related work the paper contrasts with (Wang et al., MICRO 2017:
    hardware support for persistent-object address translation) and its
    own future-work note on combining the software methods with hardware
    support.

    Stored format is identical to RIV ([{region ID | offset}]); the
    difference is that the ID-to-base translation is performed by a
    dedicated hardware table, charged at a fixed {!translation_cycles}
    (a TLB-like hit) instead of a memory load through the cache
    hierarchy. Comparing it against RIV in the ablation benchmarks
    bounds how much headroom hardware support leaves over the paper's
    pure-software tables. *)

module K = Nvmpi_addr.Kinds
module Vaddr = K.Vaddr
module Riv = K.Riv

let name = "hw-oid"
let slot_size = 8
let cross_region = true
let position_independent = true

let translation_cycles = 2
(** Hardware translation-table hit latency. *)

(* The hardware table is backed by the same software state (the
   NV-space base table contents) so correctness is identical; only the
   charged cost differs. *)

let store m ~holder (target : Vaddr.t) =
  Machine.bump m Machine.Cell.hw_oid_stores;
  if Vaddr.is_null target then Machine.store64 m holder 0
  else begin
    let rid = Machine.rid_of_addr_exn m target in
    Machine.alu m translation_cycles;
    let v =
      K.riv_of_rid_off m.Machine.layout ~rid
        ~offset:(K.seg_offset m.Machine.layout target)
    in
    Machine.store64 m holder (v :> int)
  end

let load m ~holder =
  Machine.bump m Machine.Cell.hw_oid_loads;
  let v = Riv.v (Machine.load64 m holder) in
  if Riv.is_null v then Vaddr.null
  else begin
    Machine.alu m translation_cycles;
    let rid = K.rid_of_riv m.Machine.layout v in
    match Machine.region m rid with
    | Some r ->
        (* Figure 8's persistentX decode closing step, with the base
           produced by the hardware table instead of id2addr. *)
        K.vaddr_of_riv m.Machine.layout ~via:(Nvmpi_nvregion.Region.base r) v
    | None -> raise (Nvspace.Unknown_region { rid })
  end
