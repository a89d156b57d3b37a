let sentinel_magic = 49374.0 (* 0xC0DE *)

type t = {
  cells : Value.t array;
  mutable brk : int;                 (* bump pointer *)
  (* Reclaimed regions, oldest first: entry [i] is [free_size.(i)] cells
     at [free_addr.(i)], entries [0, n_free) live. *)
  mutable free_addr : int array;
  mutable free_size : int array;
  mutable n_free : int;
  mutable table : int array;         (* handle -> base address *)
  mutable next_handle : int;
  mutable sentinel_addr : int;       (* -1 when not allocated *)
}

let size t = Array.length t.cells

let create ?(size_limit = 1 lsl 18) () =
  {
    cells = Array.make size_limit Value.Undefined;
    brk = 0;
    free_addr = Array.make 16 0;
    free_size = Array.make 16 0;
    n_free = 0;
    table = Array.make 64 (-1);
    next_handle = 0;
    sentinel_addr = -1;
  }

(* First-fit allocation from the free list, newest region first (LIFO),
   falling back to bumping. A fit's remainder stays in the region's slot,
   so the search order, and with it every base address the CVE exploits
   rely on, never changes under a split. The sentinel occupies the top
   two cells, which the bump pointer may not reach. *)
let alloc_cells t n =
  let rec find i = if i < 0 || t.free_size.(i) >= n then i else find (i - 1) in
  let i = find (t.n_free - 1) in
  if i >= 0 then begin
    let addr = t.free_addr.(i) in
    let rest = t.free_size.(i) - n in
    if rest > 0 then begin
      t.free_addr.(i) <- addr + n;
      t.free_size.(i) <- rest
    end
    else begin
      let tail = t.n_free - i - 1 in
      Array.blit t.free_addr (i + 1) t.free_addr i tail;
      Array.blit t.free_size (i + 1) t.free_size i tail;
      t.n_free <- t.n_free - 1
    end;
    addr
  end
  else begin
    let limit = if t.sentinel_addr >= 0 then t.sentinel_addr else size t in
    if t.brk + n > limit then raise Errors.Heap_exhausted;
    let base = t.brk in
    t.brk <- t.brk + n;
    base
  end

let free_cells t addr n =
  if n > 0 then begin
    for i = addr to addr + n - 1 do
      t.cells.(i) <- Value.Undefined
    done;
    if t.n_free = Array.length t.free_addr then begin
      let grow a = Array.append a (Array.make (Array.length a) 0) in
      t.free_addr <- grow t.free_addr;
      t.free_size <- grow t.free_size
    end;
    t.free_addr.(t.n_free) <- addr;
    t.free_size.(t.n_free) <- n;
    t.n_free <- t.n_free + 1
  end

let fresh_handle t =
  let h = t.next_handle in
  t.next_handle <- h + 1;
  if h >= Array.length t.table then begin
    let table = Array.make (2 * Array.length t.table) (-1) in
    Array.blit t.table 0 table 0 (Array.length t.table);
    t.table <- table
  end;
  h

let write_header t base ~length ~capacity =
  t.cells.(base) <- Value.Number (float_of_int length);
  t.cells.(base + 1) <- Value.Number (float_of_int capacity)

let alloc_region t ~length ~capacity =
  let base = alloc_cells t (2 + capacity) in
  write_header t base ~length ~capacity;
  for i = 0 to length - 1 do
    t.cells.(base + 2 + i) <- Value.Undefined
  done;
  base

let alloc_array t ~length =
  let capacity = max length 1 in
  let base = alloc_region t ~length ~capacity in
  let h = fresh_handle t in
  t.table.(h) <- base;
  h

let base_addr t h = t.table.(h)

(* The sentinel lives in the top two cells of the heap: a forged
   read/write primitive built from a corrupted array length (whose reach
   is forward from the array's base) can always reach it. *)
let alloc_sentinel t =
  let base = size t - 2 in
  t.cells.(base) <- Value.Number sentinel_magic;
  t.cells.(base + 1) <- Value.Number sentinel_magic;
  t.sentinel_addr <- base;
  base

let sentinel_intact t =
  t.sentinel_addr < 0
  ||
  match t.cells.(t.sentinel_addr) with
  | Value.Number f -> f = sentinel_magic
  | _ -> false

let check_sentinel t =
  if not (sentinel_intact t) then
    raise
      (Errors.Shellcode_executed
         (Printf.sprintf "JIT code pointer at heap cell %d was overwritten" t.sentinel_addr))

(* Header reads must tolerate corruption: an exploit may have overwritten a
   length cell with an arbitrary value; a real engine reads whatever bytes
   are there. *)
let header_int t addr =
  match t.cells.(addr) with
  | Value.Number f when Float.is_nan f -> 0
  | Value.Number f -> int_of_float f
  | _ -> 0

let length t h = header_int t t.table.(h)

let capacity t h = header_int t (t.table.(h) + 1)

(* Shrinking reclaims the storage tail (SpiderMonkey "reclaims memory
   areas that no longer belong to the array" — the behaviour
   CVE-2019-17026's exploit depends on: a victim object allocated next
   lands in the reclaimed region, right after the shrunk array). Growing
   past capacity reallocates and frees the old region. *)
let set_length t h n =
  let n = max n 0 in
  let base = t.table.(h) in
  let cap = header_int t (base + 1) in
  let old_len = header_int t base in
  if n <= cap then begin
    for i = old_len to n - 1 do
      t.cells.(base + 2 + i) <- Value.Undefined
    done;
    let new_cap = max n 1 in
    if new_cap < cap then begin
      write_header t base ~length:n ~capacity:new_cap;
      free_cells t (base + 2 + new_cap) (cap - new_cap)
    end
    else t.cells.(base) <- Value.Number (float_of_int n)
  end
  else begin
    let new_cap = max n (2 * cap) in
    let new_base = alloc_region t ~length:n ~capacity:new_cap in
    Array.blit t.cells (base + 2) t.cells (new_base + 2) (min old_len n);
    for i = old_len to n - 1 do
      t.cells.(new_base + 2 + i) <- Value.Undefined
    done;
    t.table.(h) <- new_base;
    free_cells t base (2 + cap)
  end

(* Checked accesses bound the physical heap as well, so that a corrupted
   length header lets scripts read/write far beyond the array (the forged
   r/w primitive) without crashing the host. *)
let get t h i =
  let base = t.table.(h) in
  let len = header_int t base in
  let addr = base + 2 + i in
  if i >= 0 && i < len && addr < size t then t.cells.(addr) else Value.Undefined

let set t h i v =
  let base = t.table.(h) in
  let len = header_int t base in
  let addr = base + 2 + i in
  if i >= 0 && i < len then begin
    if addr < size t then t.cells.(addr) <- v
  end
  else if i = len then begin
    set_length t h (len + 1);
    let base = t.table.(h) in
    t.cells.(base + 2 + i) <- v
  end
  (* sparse writes further out are ignored: the subset only supports dense
     arrays *)

let get_unchecked t h i =
  let base = t.table.(h) in
  let addr = base + 2 + i in
  if addr < 0 || addr >= size t then
    Errors.crash "OOB read at heap address %d (heap size %d)" addr (size t)
  else t.cells.(addr)

let set_unchecked t h i v =
  let base = t.table.(h) in
  let addr = base + 2 + i in
  if addr < 0 || addr >= size t then
    Errors.crash "OOB write at heap address %d (heap size %d)" addr (size t)
  else t.cells.(addr) <- v

let push t h v =
  let base = t.table.(h) in
  let len = header_int t base in
  let cap = header_int t (base + 1) in
  if len < cap then begin
    t.cells.(base + 2 + len) <- v;
    t.cells.(base) <- Value.Number (float_of_int (len + 1))
  end
  else begin
    set_length t h (len + 1);
    let base = t.table.(h) in
    t.cells.(base + 2 + len) <- v
  end

(* pop does not reclaim storage (JS engines shrink lazily if at all). *)
let pop t h =
  let base = t.table.(h) in
  let len = header_int t base in
  if len <= 0 then Value.Undefined
  else begin
    let v = t.cells.(base + 2 + (len - 1)) in
    t.cells.(base) <- Value.Number (float_of_int (len - 1));
    v
  end

let cells_used t = t.brk
