(** Boots a fresh run from a crashed-region image set.

    The crash image becomes the canonical store blob of a brand-new
    {!Nvmpi_nvregion.Store.t}; a fresh machine (seeded, so region
    placement is reproducible yet different per crash point) opens each
    region at a freshly randomized segment — recovery must therefore
    survive both the byte-level truncation to durable state {e and} the
    remap, which is exactly the paper's position-independence claim. *)

val store_of_images :
  (Nvmpi_addr.Kinds.Rid.t * int * Bytes.t) list -> Nvmpi_nvregion.Store.t
(** A store whose blobs hold exactly the given [(rid, size, image)]s. *)

val boot :
  ?metrics:Nvmpi_obs.Metrics.t ->
  seed:int ->
  durability:Core.Durability.t ->
  (Nvmpi_addr.Kinds.Rid.t * int * Bytes.t) list ->
  Core.Machine.t * (Nvmpi_addr.Kinds.Rid.t * Nvmpi_nvregion.Region.t) list
(** Builds the store, creates a machine over it under [durability] (the
    crashed machine's discipline) and opens every region
    (validating region headers — a corrupted durable header surfaces
    here as [Failure]). *)
