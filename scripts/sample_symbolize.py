#!/usr/bin/env python3
"""Symbolise a sample_preload.c or heap_preload.c dump over `nm -C` and
print profile tables.

usage: sample_symbolize.py SAMPLES BINARY [--top N] [--focus FRAME]
                             [--callers-of PATTERN] [--layers]
       sample_symbolize.py HEAP BINARY --heap [--top N] [--depth N]

Time (the default): self time by leaf symbol, inclusive time (a symbol
anywhere on the stack, once per sample), and libc leaves by the Rust caller
that entered them (libc has no frame pointers and no static symbols here,
so `memmove` called from three places would otherwise be one opaque row).
`--focus run_until` keeps only samples with a matching frame and cuts each
stack at it, so shares are of the measured loop rather than of set-up plus
loop. `--callers-of collections::btree` adds the share of kept samples with
a matching frame among their six leaf frames (how ROADMAP.md measures "the
btree share"), broken down by each sample's first frame outside `alloc::`,
`core::`, `std::` and libc: the code that called into the matching one.
`--layers` adds the share of kept samples by layer (ROADMAP item 14's
path rules): the outermost frame that names a layer decides it —

  metrics  `ape_simnet::metrics::`
  send     `send_after` (its link sampling and queue push included)
  evict    `CacheManager<P>::admit`, `roll_window`, `purge_expired`
  queue    `ape_simnet::event::EventQueue`, `ape_simnet::wheel::TimerWheel`

— and a sample with none of them is `logic` under a node callback (a
`Node` impl's frame) and `other` outside one (the loop's own glue). Frames
the compiler inlined count toward their caller.

Heap (`--heap`): bytes live at the heap's peak by owner — the first
`--depth` frames past the allocator's own (`alloc::`, `core::`, `std::`,
the global allocator, libc) — and inclusive bytes by frame. Needs only
`nm` and python3.
"""
import argparse
import bisect
import collections
import re
import subprocess

# Frames that allocate on someone else's behalf: a heap owner is the first
# frame past them.
PLUMBING = re.compile(r'^(<?(alloc|core|std|hashbrown)::|__r[dg]l?_|__rust_|<?apebench::alloc::|\[)')

# How deep into a stack `--callers-of` looks for its pattern.
LEAF_FRAMES = 6

# `--layers`: each layer and the frame texts that name it, in report order.
LAYERS = (
    ('metrics', ('ape_simnet::metrics::',)),
    ('send', ('send_after',)),
    ('evict', ('CacheManager<P>::admit', 'roll_window', 'purge_expired')),
    ('queue', ('ape_simnet::event::EventQueue', 'ape_simnet::wheel::TimerWheel')),
)
NODE_CALLBACK = 'as ape_simnet::node::Node<'


def layer_of(frames):
    """The layer of one sample's stack, leaf first (see `--layers`)."""
    for f in reversed(frames):
        for layer, texts in LAYERS:
            if any(t in f for t in texts):
                return layer
    return 'logic' if any(NODE_CALLBACK in f for f in frames) else 'other'


def load_symbols(binary):
    """Sorted (address, name) for the text symbols of `binary`."""
    out = subprocess.run(['nm', '-C', '--defined-only', binary],
                         capture_output=True, text=True, check=True).stdout
    syms = []
    for line in out.splitlines():
        parts = line.split(' ', 2)
        if len(parts) == 3 and parts[1] in 'tTwW':
            syms.append((int(parts[0], 16), parts[2]))
    syms.sort()
    return syms


def short(name):
    """Drops the legacy-mangling hash suffix (`::h0123456789abcdef`)."""
    return re.sub(r'::h[0-9a-f]{16}$', '', name)


def print_table(title, unit, table, total, top, extra=None):
    print(f'\n{title:<28} {unit:>9}   share')
    for name, n in table.most_common(top):
        more = f'  {extra[name]:>9}' if extra else ''
        shown = f'{n / 1e6:>9.2f}' if unit == 'MB' else f'{n:>9}'
        print(f'  {shown} {100 * n / max(total, 1):>6.1f}%{more}  {name}')


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument('dump')
    ap.add_argument('binary')
    ap.add_argument('--top', type=int, default=15)
    ap.add_argument('--focus', help='keep only samples with a frame containing this text')
    ap.add_argument('--callers-of', metavar='PATTERN',
                    help='share of kept samples with a leaf frame containing this text, by caller')
    ap.add_argument('--layers', action='store_true',
                    help='share of kept samples by layer (ROADMAP item 14)')
    ap.add_argument('--heap', action='store_true', help='the dump is heap_preload.c output')
    ap.add_argument('--depth', type=int, default=1, help='--heap: frames that name an owner')
    args = ap.parse_args()

    maps, stacks, dropped, peak = [], [], 0, None
    for line in open(args.dump):
        tag, _, rest = line.partition(' ')
        if tag == 'M':
            f = rest.split()
            lo, hi = (int(x, 16) for x in f[0].split('-'))
            maps.append((lo, hi, int(f[2], 16), f[5] if len(f) > 5 else '[anon]'))
        elif tag == 'S':
            stacks.append([int(x, 16) for x in rest.split()])
        elif tag == 'H':
            f = rest.split()
            stacks.append((int(f[0]), int(f[1]), [int(x, 16) for x in f[2:]]))
        elif tag == 'P':
            peak = [int(x) for x in rest.split()]
        elif tag == 'D':
            dropped = int(rest)
    exe = next(path for *_, path in maps if path.endswith(args.binary.rsplit('/', 1)[-1]))
    base = min(lo - off for lo, _, off, path in maps if path == exe)
    syms = load_symbols(args.binary)
    addrs = [a for a, _ in syms]

    def resolve(addr):
        """Symbol for a program address; (name, in_binary)."""
        for lo, hi, _, path in maps:
            if lo <= addr < hi:
                if path != exe:
                    return '[' + path.rsplit('/', 1)[-1] + ']', False
                i = bisect.bisect_right(addrs, addr - base) - 1
                return (short(syms[i][1]) if i >= 0 else '[?]'), True
        return '[unmapped]', False

    if args.heap:
        heap_tables(args, stacks, peak, resolve)
    else:
        time_tables(args, stacks, dropped, resolve)


def heap_tables(args, stacks, peak, resolve):
    owners, incl, blocks = (collections.Counter() for _ in range(3))
    total = 0
    for nbytes, nblocks, rets in stacks:
        frames = [resolve(r - 1)[0] for r in rets]  # -1: inside the call
        start = next((i for i, f in enumerate(frames) if not PLUMBING.match(f)), len(frames))
        owner = ' <- '.join(frames[start:start + args.depth]) or '[allocator only]'
        owners[owner] += nbytes
        blocks[owner] += nblocks
        for f in set(frames):
            incl[f] += nbytes
        total += nbytes
    peak_bytes, snap_bytes, allocations = peak
    print(f'peak live heap {peak_bytes / 1e6:.2f} MB; snapshot {snap_bytes / 1e6:.2f} MB '
          f'in {len(stacks)} stacks; {allocations} allocations')
    print_table(f'owner (depth {args.depth})', 'MB', owners, total, args.top,
                {k: f'{v} blk' for k, v in blocks.items()})
    print_table('inclusive', 'MB', incl, total, args.top)


def time_tables(args, stacks, dropped, resolve):
    self_t, incl, libc_by_caller, callers, layers = (collections.Counter() for _ in range(5))
    kept = 0
    for words in stacks:
        rip, top, rets = words[0], words[1], words[2:]
        leaf, in_binary = resolve(rip)
        frames = [leaf]
        if not in_binary:
            # Frameless leaf outside the binary: the word at RSP is its
            # return address unless it pushed something first.
            caller, ok = resolve(top)
            caller = caller if ok else '[unknown caller]'
            frames.append(caller)
        frames += [resolve(r)[0] for r in rets]
        if args.focus:
            at = next((i for i, f in enumerate(frames) if args.focus in f), None)
            if at is None:
                continue
            frames = frames[:at + 1]  # its callers are on every kept sample
        kept += 1
        self_t[leaf] += 1
        if not in_binary:
            libc_by_caller[f'{leaf} <- {frames[1]}'] += 1
        for f in set(frames):
            incl[f] += 1
        layers[layer_of(frames)] += 1
        if args.callers_of and any(args.callers_of in f for f in frames[:LEAF_FRAMES]):
            callers[next((f for f in frames if not PLUMBING.match(f)), '[plumbing only]')] += 1

    scope = f'samples with a `{args.focus}` frame' if args.focus else 'all samples'
    print(f'{len(stacks)} samples at 200 us ({dropped} dropped), {kept} kept: {scope}')
    for title, table in (('self', self_t), ('inclusive', incl), ('libc leaf <- caller', libc_by_caller)):
        print_table(title, 'samples', table, kept, args.top)
    if args.callers_of:
        n = sum(callers.values())
        print(f'\n`{args.callers_of}` among the {LEAF_FRAMES} leaf frames: {n} samples, '
              f'{100 * n / max(kept, 1):.1f}% of kept')
        print_table('by first non-plumbing frame', 'samples', callers, kept, args.top)
    if args.layers:
        print(f'\n{"layer":<28} {"samples":>9}   share')
        for layer in [name for name, _ in LAYERS] + ['logic', 'other']:
            n = layers[layer]
            print(f'  {n:>9} {100 * n / max(kept, 1):>6.1f}%  {layer}')


if __name__ == '__main__':
    main()
