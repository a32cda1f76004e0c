module Machine = Core.Machine
module Store = Nvmpi_nvregion.Store
module Region = Nvmpi_nvregion.Region
module Metrics = Nvmpi_obs.Metrics
module Rid = Nvmpi_addr.Kinds.Rid

let store_of_images images =
  let store = Store.create () in
  List.iter
    (fun (rid, size, img) ->
      Store.add_with_rid store ~rid ~size;
      let blob = Store.find_exn store rid in
      Bytes.blit img 0 blob.Store.data 0 size)
    images;
  store

let boot ?metrics ~seed ~durability images =
  let store = store_of_images images in
  let machine = Machine.create ?metrics ~seed ~durability ~store () in
  let regions =
    List.map (fun (rid, _, _) -> (rid, Machine.open_region machine rid)) images
  in
  (machine, regions)
