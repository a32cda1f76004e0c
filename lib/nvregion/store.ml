module K = Nvmpi_addr.Kinds
module Rid = K.Rid

type blob = { rid : Rid.t; size : int; data : Bytes.t }

(* The store indexes blobs by raw ID: it models the NVM device, below
   the typed discipline; [Rid.t] appears at the interface. *)
type t = { blobs : (int, blob) Hashtbl.t; mutable next : int }

let header_bytes = Header.bytes
let max_roots = Header.max_roots
let magic = Header.magic

let create () = { blobs = Hashtbl.create 16; next = 1 }

let init_header b ~rid ~size =
  Bytes.set_int64_le b Header.off_magic (Int64.of_int magic);
  Bytes.set_int64_le b Header.off_rid (Int64.of_int rid);
  Bytes.set_int64_le b Header.off_size (Int64.of_int size);
  Bytes.set_int64_le b Header.off_heap_top (Int64.of_int header_bytes);
  Bytes.set_int64_le b Header.off_nroots 0L

let add_with_rid t ~rid:(rid' : Rid.t) ~size =
  let rid = (rid' :> int) in
  if rid <= 0 then invalid_arg "Store.add_with_rid: rid must be positive";
  if Hashtbl.mem t.blobs rid then
    invalid_arg (Printf.sprintf "Store.add_with_rid: rid %d exists" rid);
  if size < header_bytes then
    invalid_arg
      (Printf.sprintf "Store.add_with_rid: size %d < header %d" size
         header_bytes);
  let data = Bytes.make size '\000' in
  init_header data ~rid ~size;
  Hashtbl.add t.blobs rid { rid = rid'; size; data };
  if rid >= t.next then t.next <- rid + 1

let add t ~size =
  let rid = Rid.v t.next in
  add_with_rid t ~rid ~size;
  rid

let find t (rid : Rid.t) = Hashtbl.find_opt t.blobs (rid :> int)

let grow t ~rid:(rid : Rid.t) ~size =
  match Hashtbl.find_opt t.blobs (rid :> int) with
  | None ->
      invalid_arg (Printf.sprintf "Store.grow: no region %d" (rid :> int))
  | Some b ->
      if size <= b.size then
        invalid_arg "Store.grow: new size must exceed the current size";
      let data = Bytes.make size '\000' in
      Bytes.blit b.data 0 data 0 b.size;
      (* The header records the region size; update it in the image. *)
      Bytes.set_int64_le data Header.off_size (Int64.of_int size);
      Hashtbl.replace t.blobs (rid :> int) { b with size; data }

let find_exn t (rid : Rid.t) =
  match find t rid with
  | Some b -> b
  | None ->
      invalid_arg
        (Printf.sprintf "Store.find_exn: no region %d" (rid :> int))

let mem t (rid : Rid.t) = Hashtbl.mem t.blobs (rid :> int)
let remove t (rid : Rid.t) = Hashtbl.remove t.blobs (rid :> int)

let ids t =
  Hashtbl.fold (fun k _ acc -> Rid.v k :: acc) t.blobs []
  |> List.sort Rid.compare

let next_rid t = Rid.v t.next

let blob_rid b =
  Rid.v (Int64.to_int (Bytes.get_int64_le b.data Header.off_rid))

let file_magic = "NVMPI-STORE-1\n"

let save_file t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc file_magic;
      let ids = ids t in
      output_binary_int oc (List.length ids);
      List.iter
        (fun rid ->
          let b = find_exn t rid in
          output_binary_int oc (b.rid :> int);
          output_binary_int oc b.size;
          output_bytes oc b.data)
        ids)

(* Every length in the file is checked against the bytes that remain
   before anything is allocated, so a hostile file fails with a reason
   instead of an exception or a huge allocation. *)
let load_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let left () = in_channel_length ic - pos_in ic in
          let rec blobs t n =
            if n = 0 then Ok t
            else
              let rid = input_binary_int ic in
              let size = input_binary_int ic in
              if size < 0 || size > left () then
                Error
                  (Printf.sprintf
                     "region %d: blob size %d out of range (%d bytes left)"
                     rid size (left ()))
              else begin
                let data = Bytes.create size in
                really_input ic data 0 size;
                Hashtbl.add t.blobs rid { rid = Rid.v rid; size; data };
                if rid >= t.next then t.next <- rid + 1;
                blobs t (n - 1)
              end
          in
          try
            if really_input_string ic (String.length file_magic) <> file_magic
            then Error "not a store file (bad magic)"
            else
              let n = input_binary_int ic in
              if n < 0 then Error (Printf.sprintf "negative region count %d" n)
              else blobs (create ()) n
          with End_of_file -> Error "truncated store file")
