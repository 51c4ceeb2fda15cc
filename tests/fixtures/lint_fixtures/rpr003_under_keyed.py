"""Lint fixture: an IterativeCache whose distance keys omit the metric,
plus a store access from a method with no declared contract."""


class IterativeCache:
    def distance_columns(self, X, rows, metric):
        for row in rows:
            col = self._distance.get((int(row),))  # under-keyed: no metric
            if col is None:
                self._distance.put((int(row),), X[row])
        return X

    def segmental_matrix(self, X, rows, dim_sets):
        for row, dims in zip(rows, dim_sets):
            key = (int(row), tuple(dims))
            if self._segmental.get(key) is None:
                self._segmental.put(key, X[row])
        return X

    def localities(self, columns, rows, metric, deltas, min_size):
        for i, row in enumerate(rows):
            key = (row, deltas[i], min_size, metric)
            if self._locality.get(key) is None:
                self._locality.put(key, columns[i])
        return columns

    def _store_locality(self, row, delta, min_size, metric, members):
        key = (row, delta, min_size, metric)
        if self._locality.get(key) is None:
            self._locality.put(key, members)

    def dimension_stats(self, X, rows, localities, deltas, min_size, metric):
        for i, row in enumerate(rows):
            key = (row, deltas[i], min_size, metric)
            if self._stats.get(key) is None:
                self._stats.put(key, X[row])
        return X

    def _store_new_medoid(self, X, column, members, stats, row, delta,
                          min_size, metric):
        key = (row, delta, min_size, metric)
        if self._stats.get(key) is None:
            self._stats.put(key, stats)

    def peek(self, row):
        # undeclared: no contract covers this access
        return self._distance.get((row, "euclidean"))
