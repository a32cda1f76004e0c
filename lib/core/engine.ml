(** Per-kind direct dispatch into the nine pointer representations.

    Call sites that keep the representation kind as a runtime value
    (the conformance executor, the KV store, the probes) go through
    {!store}/{!load}/{!deref}: one match on the kind, then a direct call
    into the representation module — no first-class module unpacked and
    no closure built per call. Structure code reaches the same modules
    through the static [Spec] applications of
    [Nvmpi_structures.Specialized]. *)

let store k m ~holder target =
  match k with
  | Repr.Normal -> Normal_ptr.store m ~holder target
  | Repr.Off_holder -> Off_holder.store m ~holder target
  | Repr.Riv -> Riv.store m ~holder target
  | Repr.Fat -> Fat.store m ~holder target
  | Repr.Fat_cached -> Fat_cached.store m ~holder target
  | Repr.Based -> Based_ptr.store m ~holder target
  | Repr.Swizzle -> Swizzle.store m ~holder target
  | Repr.Packed_fat -> Packed_fat.store m ~holder target
  | Repr.Hw_oid -> Hw_oid.store m ~holder target

let load k m ~holder =
  match k with
  | Repr.Normal -> Normal_ptr.load m ~holder
  | Repr.Off_holder -> Off_holder.load m ~holder
  | Repr.Riv -> Riv.load m ~holder
  | Repr.Fat -> Fat.load m ~holder
  | Repr.Fat_cached -> Fat_cached.load m ~holder
  | Repr.Based -> Based_ptr.load m ~holder
  | Repr.Swizzle -> Swizzle.load m ~holder
  | Repr.Packed_fat -> Packed_fat.load m ~holder
  | Repr.Hw_oid -> Hw_oid.load m ~holder

(** [deref k m ~holder] decodes the pointer in [holder] and loads the
    64-bit word it targets — the paper's unit of comparison (a few bit
    transformations plus the dependent load).
    The holder must hold a non-null pointer. *)
let deref k m ~holder = Machine.load64 m (load k m ~holder)
