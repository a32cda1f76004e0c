type t = {
  line_bits : int;
  sets : int;
  ways : int;
  tags : int array; (* sets * ways; -1 = invalid *)
  dirty : bool array;
  age : int array;
  mutable tick : int;
}

(* Unboxed result encoding for [access]: negative values are the two
   allocation-free outcomes, any value >= 0 is the line-aligned address
   of a dirty victim that must be written back. *)
let hit = -1
let miss_clean = -2

let create ~size_bytes ~ways ~line_bits =
  let line = 1 lsl line_bits in
  if not (Nvmpi_addr.Bitops.is_pow2 size_bytes && Nvmpi_addr.Bitops.is_pow2 ways)
  then invalid_arg "Cache_level.create: sizes must be powers of two";
  let sets = size_bytes / (ways * line) in
  if sets < 1 || not (Nvmpi_addr.Bitops.is_pow2 sets) then
    invalid_arg "Cache_level.create: inconsistent geometry";
  {
    line_bits;
    sets;
    ways;
    tags = Array.make (sets * ways) (-1);
    dirty = Array.make (sets * ways) false;
    age = Array.make (sets * ways) 0;
    tick = 0;
  }

let sets t = t.sets
let ways t = t.ways
let line_bytes t = 1 lsl t.line_bits

let set_of t line = line land (t.sets - 1)

let access t ~addr ~write =
  let line = addr lsr t.line_bits in
  let s = set_of t line in
  let base = s * t.ways in
  t.tick <- t.tick + 1;
  let found = ref (-1) in
  for w = 0 to t.ways - 1 do
    if t.tags.(base + w) = line then found := w
  done;
  if !found >= 0 then begin
    let i = base + !found in
    t.age.(i) <- t.tick;
    if write then t.dirty.(i) <- true;
    hit
  end
  else begin
    (* Choose victim: an invalid way if any, else LRU. *)
    let victim = ref 0 in
    let best_age = ref max_int in
    (try
       for w = 0 to t.ways - 1 do
         if t.tags.(base + w) = -1 then begin
           victim := w;
           raise Exit
         end
         else if t.age.(base + w) < !best_age then begin
           best_age := t.age.(base + w);
           victim := w
         end
       done
     with Exit -> ());
    let i = base + !victim in
    let result =
      if t.tags.(i) >= 0 && t.dirty.(i) then t.tags.(i) lsl t.line_bits
      else miss_clean
    in
    t.tags.(i) <- line;
    t.dirty.(i) <- write;
    t.age.(i) <- t.tick;
    result
  end

let flush_line t ~addr =
  let line = addr lsr t.line_bits in
  let s = set_of t line in
  let base = s * t.ways in
  let result = ref false in
  for w = 0 to t.ways - 1 do
    let i = base + w in
    if t.tags.(i) = line then begin
      result := t.dirty.(i);
      t.tags.(i) <- -1;
      t.dirty.(i) <- false
    end
  done;
  !result

let invalidate_all t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.dirty 0 (Array.length t.dirty) false
